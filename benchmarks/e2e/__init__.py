"""End-to-end benchmark: the pipeline run and the served request.

Four workloads (``run_small``, ``relearn_small``, ``serve_single_zipf``,
``serve_batch_unique``), each measured untraced for the end-to-end
metrics and once more traced for the per-layer split.  See README.md.
"""
