"""Pipeline benchmark for depthformer; entry point is ``run.py``."""
