"""Output processing & aggregation API (paper section 3.3, Table 2).

Differential stream operators over match deltas: MAP, FILTER, FLATMAP,
JOIN, GROUPBY, COUNT, AGG, plus the MOTIF helper re-exported from the motif
library.  The paper implements this layer on Spark Structured Streaming;
here it is a small push-based differential dataflow.
"""

from repro.dataflow.aggregation import (
    Aggregator,
    CountAggregator,
    MeanAggregator,
    SumAggregator,
)
from repro.dataflow.stream import Record, Stream
from repro.graph.canonical import motif_of as MOTIF

__all__ = [
    "Aggregator",
    "CountAggregator",
    "MeanAggregator",
    "SumAggregator",
    "Record",
    "Stream",
    "MOTIF",
]
