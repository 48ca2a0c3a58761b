"""Smoke test of the benchmark harness on tiny inputs (seconds, not minutes).

    python3 perfbench/smoke.py

Checks that every workload runs and prints every end-to-end metric with its
unit, that a traced run prints every per-layer metric named in
BENCHMARK.json, that a deliberately wrong reference is reported as a failed
operation with a non-zero exit code, and that decode on the default 8 x 45 s
dataset reproduces the golden r2_vw frozen in references.json (about 20 s).
Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


GOLDEN_R2_VW = 0.9115419579912554  # decode, seed 0, default dataset


def bench(*args: str, scale: str = "tiny", seconds: str = "1") -> tuple[int, str, dict | None]:
    proc = subprocess.run([sys.executable, str(RUN), "--scale", scale, "--seconds", seconds, *args],
                          capture_output=True, text=True, check=False, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, proc.stdout + proc.stderr, result


def check(ok: bool, what: str, output: str = "") -> None:
    if not ok:
        print(output)
        raise SystemExit(f"smoke test failed: {what}")
    print(f"ok: {what}")


def expect_metrics(result: dict | None, spec: list[dict], output: str, what: str) -> None:
    check(result is not None, f"{what}: printed a JSON result", output)
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(m["name"] for m in spec), f"{what}: every metric printed", output)
    for m in spec:
        check(metrics[m["name"]]["unit"] == m["unit"], f"{what}: {m['name']} in {m['unit']}", output)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    refs = ROOT / ".perfbench_out" / "smoke-references.json"
    refs.parent.mkdir(exist_ok=True)
    refs.write_text("{}\n", encoding="utf-8")

    for w in benchmark["workloads"]:
        code, out, result = bench("--workload", w["name"], "--seed", "0", "--trace", "0",
                                  "--references", str(refs), "--freeze")
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{w['name']}: untraced run is correct", out)
        expect_metrics(result, benchmark["end_to_end"], out, w["name"])
        for name in ("wall_s", "setup_s", "peak_rss_mb", "ref_rel_err", "failed_frac"):
            check(any(line.startswith(name) for line in out.splitlines()),
                  f"{w['name']}: summary line for {name}", out)

    code, out, result = bench("--workload", "decode", "--seed", "0", "--trace", "1",
                              "--references", str(refs))
    check(code == 0 and result["correct"], "decode: traced run matches its frozen reference", out)
    expect_metrics(result, benchmark["per_layer"], out, "decode traced")

    frozen = json.loads(refs.read_text(encoding="utf-8"))
    frozen["tiny"]["decode"]["0"]["r2_vw"] *= 1.0 + 1e-6
    refs.write_text(json.dumps(frozen), encoding="utf-8")
    code, out, result = bench("--workload", "decode", "--seed", "0", "--trace", "0",
                              "--references", str(refs))
    check(code != 0, "wrong reference: non-zero exit code", out)
    check(result is not None and not result["correct"] and result["failed"] >= 1,
          "wrong reference: counted as a failed operation", out)
    check("FAILED: reference r2_vw" in out, "wrong reference: printed", out)
    refs.unlink()

    golden = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    check(golden["paper"]["decode"]["0"] == {"r2_vw": GOLDEN_R2_VW},
          "references.json holds the golden r2_vw for decode, seed 0")
    code, out, result = bench("--workload", "decode", "--seed", "0", "--trace", "0",
                              scale="paper", seconds="0")
    check(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
          "decode on the default dataset matches the golden r2_vw", out)
    check("against the frozen references of 1 of 1 input sets" in out,
          "decode on the default dataset was checked against its reference", out)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
