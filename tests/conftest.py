"""Session-scoped Ray + shared synthetic fixtures for engine tests."""

import gc
import os
import shutil

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    try:
        import ray.data
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
    except Exception:
        pass
    yield
    ray.shutdown()


@pytest.fixture(autouse=True)
def _collect_released_ray_actors():
    """Ray Data retires a finished actor pool by dropping its handles
    and lets reference counting end the actors; handles caught in a
    reference cycle keep their actor, and its CPU, until the cyclic GC
    runs. Four such actors hold every CPU of the 4-CPU session above,
    and the next test's tasks then wait forever. Collecting after a
    test that leaves CPUs held ends its actors before the next test
    starts (a full collection costs ~0.1 s, so idle sessions skip it)."""
    yield
    import ray

    if ray.is_initialized() and (ray.available_resources().get("CPU", 0)
                                 < ray.cluster_resources().get("CPU", 0)):
        gc.collect()


@pytest.fixture(scope="session")
def smoke_dirs(tmp_path_factory):
    """Small deterministic images + catchments tables on disk."""
    from hand_index_ray.sources import synth

    root = tmp_path_factory.mktemp("hix")
    images = str(root / "images")
    vector = str(root / "vector")
    synth.write_images(images, n=400, fragments=8)
    synth.write_catchment_suite(vector, n=250)
    yield {"root": str(root), "images": images, "vector": vector}
    shutil.rmtree(str(root), ignore_errors=True)
