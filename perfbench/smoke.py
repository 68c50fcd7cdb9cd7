"""The benchmark's own smoke test (tiny inputs, a few minutes on one core).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json is well formed and names exactly the metrics
run.py reports; that at tiny size every workload prints every metric by
name with its unit, traced and untraced, with no failed operation; that
a planted wrong answer (a dropped kNN row) raises the error rate; and
that a directory holding only BENCHMARK.json and perfbench/ makes the
benchmark exit non-zero without a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert 1 <= len(spec["paths"]) <= 16 and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], w
        assert w["name"] in ("ingest", "serve", "join"), w["name"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
        names.append(m["name"])
    assert len(names) == len(set(names)), "a name is used twice"
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(n, u) for n, u, _ in run.PER_LAYER]
    assert len(json.dumps(spec)) <= 64 * 1024
    return spec


def bench(cwd: str, *args: str) -> tuple[int, list[dict]]:
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                         timeout=600)
    lines = [json.loads(x) for x in out.stdout.splitlines() if x.startswith("{")]
    return out.returncode, lines


def main() -> int:
    spec = check_spec()
    want = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    named_metrics = {"ingest": {"ingest_img_s"},
                     "serve": {"knn_p50_ms", "bbox_p50_ms", "roi_p50_ms", "append_p50_ms"},
                     "join": {"zonal_shuffle_img_s", "zonal_bcast_img_s"}}
    for workload in ("ingest", "serve", "join"):
        for trace in ("0", "1"):
            code, lines = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "2",
                                "--trace", trace, "--size", "tiny")
            assert code == 0, (workload, trace, code)
            info, result = lines[-2]["perfbench"], lines[-1]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want[trace], (workload, trace, set(got) ^ set(want[trace]))
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                (workload, trace, info["failures"])
            if trace == "0":
                assert all(v["value"] > 0 for v in result["metrics"].values()), result
            else:
                assert info["stamp"]["seed"] == 7 and "trace_file" in info
            expect = named_metrics[workload] | {"setup_s", "peak_rss_mb", "error_rate"}
            assert expect <= set(info["metrics"]), (workload, expect - set(info["metrics"]))
            if workload == "join" and trace == "1":
                assert result["metrics"]["zonal.hot_cells"]["value"] > 0, "salting never ran"
            print(f"ok  {workload} trace={trace}", flush=True)

    code, lines = bench(ROOT, "--workload", "serve", "--seed", "7", "--seconds", "2",
                        "--trace", "0", "--size", "tiny", "--inject", "knn_drop")
    assert code == 0 and lines[-1]["failed"] > 0 and not lines[-1]["correct"], lines[-1]
    assert lines[-2]["perfbench"]["metrics"]["error_rate"]["value"] > 0
    print("ok  a dropped kNN row raises error_rate", flush=True)

    os.makedirs(os.path.join(ROOT, run.WORK), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, run.WORK)) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench(bare, "--workload", "ingest", "--seed", "1", "--seconds", "1",
                            "--trace", "0")
        assert code != 0 and not lines, (code, lines)
    print("ok  no program: non-zero exit, no result", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
