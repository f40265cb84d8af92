"""Set-up probe: a fresh interpreter's way to its first simulated event.

Run by ``run.py`` as a child process, one at a time.  It imports
``repro`` and every module the workload uses, builds the first case's
inputs and runtime, starts it and stops at the first simulated event.
It prints one JSON line of two stamps in reference seconds (see
``hostmeter.py``): this thread's CPU time since the interpreter started,
less the host meter's own, rescaled by the host speed sampled on the
way::

    python3 perfbench/setup_probe.py --workload bidding_fleet --seed 1
"""

import argparse
import json
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    from hostmeter import HostMeter, speed_ratio

    with HostMeter() as meter:
        import workloads

        imported = time.thread_time() - meter.spent
        runtime = workloads.WORKLOADS[args.workload](args.smoke).build_first(args.seed)
        workloads.run_to_first_event(runtime)
        first_event = time.thread_time() - meter.spent
    ratio = speed_ratio(meter.samples or [meter.sample()])
    print(json.dumps({"imported": imported * ratio, "first_event": first_event * ratio}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
