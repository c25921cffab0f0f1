"""Train/eval throughput benchmark for spikeff with a traced per-module breakdown.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md here.
"""
