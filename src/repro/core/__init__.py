"""OpenBox core: processing blocks, processing graphs, and the merge algorithm.

This subpackage implements the paper's primary contribution:

* the abstract processing-block model with the five block classes —
  Terminal, Classifier, Modifier, Shaper, Static (paper §2.2.1);
* :class:`~repro.core.graph.ProcessingGraph`, the DAG-of-blocks abstraction
  that OpenBox applications use to declare NF logic (paper §2.1);
* the graph-merge pipeline (paper §2.2): normalization to a processing
  tree, tree concatenation, path compression (Algorithm 1, including
  classifier cross-product merging), and duplicate-subgraph elimination.
"""
