"""Fresh-process set-up probe: import the package, build the first job.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

``run.py`` times this whole process from launch to exit; that time is the
benchmark's ``setup_s``.
"""

import sys

import bootstrap


def main(workload, seed):
    bootstrap.pin_threads()
    bootstrap.load_package()
    import workloads

    workloads.build_first(workload, seed)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
