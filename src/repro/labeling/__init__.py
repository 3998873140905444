"""Position labels: region encoding plus DataGuide path identity.

Labels give every structural question an O(1) answer:

* region labels decide ancestor/parent/order relations between any two
  elements without touching the tree;
* each element's DataGuide path node names its root-to-element tag path,
  so position-aware completion and stream pruning compare one path id
  instead of walking ancestors.

:func:`label_document` assigns both in one traversal.
"""

from repro.labeling.assign import LabeledDocument, LabeledElement, label_document
from repro.labeling.region import Region

__all__ = [
    "LabeledDocument",
    "LabeledElement",
    "Region",
    "label_document",
]
