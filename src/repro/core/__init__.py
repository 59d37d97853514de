"""ADA: the application-conscious data acquirer (the paper's contribution).

Two major components, mirroring Fig. 4:

* the **data pre-processor** (:mod:`categorizer`, :mod:`labeler`,
  :mod:`decompressor`, composed in :mod:`preprocessor`) runs on storage
  nodes: it decompresses an arriving dataset once, categorizes atoms by the
  structure learned from the ``.pdb`` file, and splits the trajectory into
  tagged subsets; and
* the **I/O determinator** (:mod:`indexer`, :mod:`dispatcher`,
  :mod:`retriever`, composed in :mod:`determinator`) places each tagged
  subset on a policy-chosen backend through the PLFS container layer and
  serves tag-selective reads.

:class:`~repro.core.middleware.ADA` is the middleware facade applications
(our VMD front end) talk to.
"""

from repro.core.tags import PlacementPolicy, SelectionTagPolicy, TagPolicy
from repro.core.categorizer import Categorizer
from repro.core.generic import FieldSpec, GenericPreProcessor, RecordStructure
from repro.core.labeler import LabelMap, build_label_map
from repro.core.decompressor import Decompressor
from repro.core.preprocessor import (
    DataPreProcessor,
    PreProcessResult,
    WindowResult,
)
from repro.core.indexer import Indexer
from repro.core.dispatcher import IODispatcher
from repro.core.ingest import IngestPipeline, IngestPipelineConfig
from repro.core.retriever import IORetriever
from repro.core.determinator import IODeterminator
from repro.core.middleware import ADA

__all__ = [
    "ADA",
    "Categorizer",
    "DataPreProcessor",
    "Decompressor",
    "FieldSpec",
    "GenericPreProcessor",
    "Indexer",
    "IngestPipeline",
    "IngestPipelineConfig",
    "RecordStructure",
    "IODeterminator",
    "IODispatcher",
    "IORetriever",
    "LabelMap",
    "PlacementPolicy",
    "PreProcessResult",
    "SelectionTagPolicy",
    "TagPolicy",
    "WindowResult",
    "build_label_map",
]
