"""True kill-and-resume test (FIXTURES.md F6 invariant 5): SIGKILL a
build subprocess mid-run, resume in a fresh process, assert no
completed fragment is re-encoded and final outputs are byte-identical
to an uninterrupted build. Plus GC after compaction."""

import os
import signal
import subprocess
import sys
import time

import pyarrow.parquet as pq

from hand_index_ray.state.manifest import Manifest

BUILD_SCRIPT = """
import sys
sys.path.insert(0, "/root/repo")
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
from hand_index_ray.config import EngineConfig
from hand_index_ray.pipelines.build import build_index
cfg = EngineConfig(decode_batch_size=64)
stats = build_index(sys.argv[1], sys.argv[2], cfg)
print("DONE", stats["fragments_built"], flush=True)
ray.shutdown()
"""


def _run_build(images, out, kill_after: float | None = None) -> tuple[int, str]:
    proc = subprocess.Popen([sys.executable, "-c", BUILD_SCRIPT, images, out],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    if kill_after is None:
        out_, _ = proc.communicate(timeout=300)
        return proc.returncode, out_
    # wait until SOME fragments are committed, then kill the whole
    # process group (driver + raylet + workers) hard
    man_dir = os.path.join(out, "_manifest")
    deadline = time.time() + 120
    while time.time() < deadline:
        done = len(os.listdir(man_dir)) if os.path.isdir(man_dir) else 0
        if done >= 2:
            break
        time.sleep(0.1)
    time.sleep(kill_after)
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    return -9, ""


def test_sigkill_mid_build_then_resume(tmp_path):
    from hand_index_ray.sources import synth

    images = str(tmp_path / "images")
    synth.write_images(images, n=400, fragments=8)

    # reference run: uninterrupted build in a fresh process
    ref_out = str(tmp_path / "ref_index")
    rc, _ = _run_build(images, ref_out)
    assert rc == 0
    ref_files = {os.path.relpath(f, ref_out): open(f, "rb").read()
                 for f in Manifest(ref_out).all_files(ref_out)}

    # killed run: SIGKILL once ≥2 fragments are committed
    out = str(tmp_path / "killed_index")
    rc, _ = _run_build(images, out, kill_after=0.2)
    assert rc == -9
    man = Manifest(out)
    done_before = man.completed_fragments()
    assert 0 < len(done_before) < 8 or len(done_before) == 8  # usually partial

    # resume in a fresh process; completed fragments are NOT re-encoded
    # (an in-flight worker may commit one more fragment between our
    # manifest snapshot and the group kill — ≤ is the race-free bound)
    rc, out_txt = _run_build(images, out)
    assert rc == 0
    rebuilt = int(out_txt.split()[-1])
    assert rebuilt <= 8 - len(done_before)
    assert rebuilt < 8  # something was genuinely skipped

    got_files = {os.path.relpath(f, out): open(f, "rb").read()
                 for f in Manifest(out).all_files(out)}
    assert set(got_files) == set(ref_files)
    for rel in ref_files:
        assert got_files[rel] == ref_files[rel], f"not byte-identical: {rel}"


def test_gc_after_compaction(ray_session, smoke_dirs, tmp_path):
    from hand_index_ray.config import EngineConfig
    from hand_index_ray.pipelines.build import build_index, compact_index, gc_index

    cfg = EngineConfig(decode_batch_size=64)
    idx = str(tmp_path / "gc_index")
    build_index(smoke_dirs["images"], idx, cfg)
    man = Manifest(idx)
    frag_files = man.all_files(idx)
    compact_index(idx, cfg)
    stats = gc_index(idx)
    assert stats["files_removed"] == len(frag_files)
    # superseded files gone, live files intact, rows preserved
    live = Manifest(idx).all_files(idx)
    assert all(os.path.exists(f) for f in live)
    assert sum(pq.ParquetFile(f).metadata.num_rows for f in live) == 400
    for f in frag_files:
        assert not os.path.exists(f)
