"""Set-up probe: a fresh interpreter imports softaccess and validates one workload's inputs.

Usage: python3 perfbench/setup_probe.py ROOT WORKLOAD INPUT_FILE...

run.py times this program from outside, several times per run. For
mc_validate it also makes one minimal simulation run, so that a kernel
compiled on first use is compiled here and not inside the timed workload.
"""
import json
import sys
from pathlib import Path


def main(argv) -> int:
    root, workload, inputs = Path(argv[0]), argv[1], argv[2:]
    sys.path.insert(0, str(root / "src"))
    import softaccess as sa

    if workload == "oracle_check":
        spec = json.loads(Path(inputs[0]).read_text())
        for _, lam in spec["ladder"]:
            sa.chain_params_from_rates(0.2, 0.75, lam)
        for net in spec["networks"]:
            cfg = sa.NetworkConfig(**net["network"])
            sa.default_sensing(cfg, n=net["n"], idle_tail=net["idle_tail"])
        return 0
    for path in inputs:
        exp = sa.validate_config(path)
        if isinstance(exp, list):
            print(f"{path}: {exp}", file=sys.stderr)
            return 2
    if workload == "mc_validate":
        policy = sa.AccessPolicy((0.0,) * exp.sensing.n, sa.Scheme.FEEDBACK)
        sa.run(exp.base, exp.sensing, policy, sa.SimConfig(slots=2, warmup=0, replications=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
