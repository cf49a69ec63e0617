#!/usr/bin/env python3
"""Smoke check of the benchmark itself, on a tiny corpus per workload.

    python3 perfbench/smoke.py

It shows that every metric named in BENCHMARK.json prints with its unit on
every workload, traced and untraced; that a deliberately broken artifact is
counted as a failed compile and lowers `solved_share`; and that a different
seed changes the `layered` and `sched` inputs while the same seed repeats
them. Exits 0 and prints "smoke: ok" when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def shrink_corpus() -> None:
    import corpus

    corpus.CAT_SIZES = (8,)
    corpus.LAYERED_CIRCUITS = 1
    corpus.SCHED_RANDOM = 1


def bench(workload: str, trace: int, seed: int = 0) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                         "--trace", str(trace)])
    if code != 0:
        raise AssertionError(f"{workload}: exit {code}")
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def check_metrics_print() -> None:
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = bench(workload, trace)
            expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                raise AssertionError(f"{workload} trace {trace}: metrics {got} != {expected}")
            for name, unit in expected.items():
                if not any(
                    line.startswith(f"{workload} {name} = ") and line.endswith(f" {unit}")
                    for line in text.splitlines()
                ):
                    raise AssertionError(f"{workload}: {name} not printed with unit {unit}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{workload} trace {trace}: {result}")


def check_broken_output_counts() -> None:
    from ionpd.drawing import OrthogonalDrawing

    original = OrthogonalDrawing.to_json

    def shifted(self):
        payload = json.loads(original(self))
        payload["nodes"][0]["x"] += 1000  # the node leaves its edges' endpoints
        return json.dumps(payload, indent=2, sort_keys=True)

    OrthogonalDrawing.to_json = shifted
    try:
        result, _ = bench("layered", 0)
    finally:
        OrthogonalDrawing.to_json = original
    if result["correct"] or result["failed"] != result["attempted"]:
        raise AssertionError(f"broken drawing.json not counted as failed: {result}")
    if result["metrics"]["solved_share"]["value"] != 0.0:
        raise AssertionError(f"broken drawing.json still counted as solved: {result}")


def check_seeds() -> None:
    from corpus import build_corpus

    from ionpd import render_qasm

    def texts(workload, seed):
        circuits = build_corpus(workload, seed, run.ROOT / "circuits")
        return {c.name: render_qasm(c.netlist) for c in circuits}

    for workload in ("layered", "sched"):
        if texts(workload, 1) != texts(workload, 1):
            raise AssertionError(f"{workload}: one seed gave two corpora")
        if texts(workload, 1) == texts(workload, 2):
            raise AssertionError(f"{workload}: seeds 1 and 2 gave the same corpus")


def main() -> int:
    run.load_program()
    shrink_corpus()
    check_metrics_print()
    check_broken_output_counts()
    check_seeds()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
