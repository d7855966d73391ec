"""Reference implementations the production paths are differentially
tested against: the object-graph Appro, LCF, baselines and rebuild-per-epoch
dynamics, the per-pair GAP LP assembly and greedy, the scalar Nash scan and
the networkx routing rows. Only tests import them; nothing under ``src/``
may (``tests/tools/test_layering.py`` enforces it)."""
