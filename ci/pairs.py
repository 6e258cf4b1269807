#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark workloads, and the verdicts.

    pairs.py PARENT_DIR CHANGE_DIR --workload W[,W...] [--pairs 10] [--seconds 20] [--seed N]

Each DIR is a checkout whose benchmark is already built
(`cargo build --release --manifest-path benchmark/Cargo.toml`); this script
builds and checks out nothing. For each workload in turn it runs the two
`strip-benchmark` binaries `run --workload W --seconds S` — parent first in
odd pairs, change first in even ones — reads the final JSON line of each
run, and prints, per end-to-end metric of BENCHMARK.json: both sides'
median and quartiles, how many pairs the change won (ties count for neither
side), the change of the median, whether it exceeds the distance between
the parent's quartiles, and a verdict against the metric's `bound`:

    regression  the change's median is worse than the parent's by more
                than the bound (relative to the parent's median);
    gain        the change won at least nine tenths of the pairs and its
                median is beyond the parent's quartiles;
    unresolved  the parent's quartiles lie further apart than the bound
                (relative to its median) and not every change run beats
                every parent run: the runs spread too widely to tell;
    ok          otherwise.

Exits 1 when a run fails or reports `"correct": false`, and after the last
workload when any verdict is a regression. Standard library only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BINARY = 'benchmark/target/release/strip-benchmark'


def run_once(directory, workload, args):
    """The `metrics` of one run of `directory`'s benchmark binary."""
    cmd = [os.path.join(directory, BINARY), 'run', '--workload', workload,
           '--seconds', str(args.seconds)]
    if args.seed is not None:
        cmd += ['--seed', str(args.seed)]
    done = subprocess.run(cmd, cwd=directory, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f'{" ".join(cmd)}: exit {done.returncode}\n{done.stderr[-2000:]}')
    result = json.loads(lines[-1])
    if not result['correct'] or result['failed']:
        sys.exit(f'{" ".join(cmd)}: correct={result["correct"]}, '
                 f'{result["failed"]} of {result["attempted"]} operations failed')
    return {name: m['value'] for name, m in result['metrics'].items()}


def quartiles(values):
    """(q1, median, q3), the inclusive method; one run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method='inclusive')
    return q1, q2, q3


def verdict(m, parent, change, wins):
    """The verdict on one metric's runs (see the module docs)."""
    higher = m['better'] == 'higher'
    bound = m.get('bound', 0.0)
    (p1, p2, p3), (_, c2, _) = quartiles(parent), quartiles(change)
    worse = (p2 - c2) if higher else (c2 - p2)
    if p2:
        worsening = worse / abs(p2)
    else:
        worsening = float('inf') if worse > 0 else 0.0
    if worsening > bound:
        return 'regression'
    if wins >= 0.9 * len(parent) and abs(c2 - p2) > p3 - p1:
        return 'gain'
    spread = (p3 - p1) / abs(p2) if p2 else (float('inf') if p3 > p1 else 0.0)
    if higher:
        every = min(change) > max(parent)
    else:
        every = max(change) < min(parent)
    if spread > bound and not every:
        return 'unresolved'
    return 'ok'


def compare(sides, workload, end_to_end, args):
    """Runs the pairs of one workload and prints its table; returns the
    verdicts by metric."""
    runs = {side: [] for side in sides}
    for pair in range(1, args.pairs + 1):
        order = ['parent', 'change'] if pair % 2 else ['change', 'parent']
        for side in order:
            runs[side].append(run_once(sides[side], workload, args))
        print(f'pair {pair:2} ({order[0]} first): ' + '  '.join(
            f'{m["name"]} {runs["parent"][-1][m["name"]]:.6g} -> {runs["change"][-1][m["name"]]:.6g}'
            for m in end_to_end), flush=True)

    print(f'\n{workload}: {args.pairs} pairs, {args.seconds:g} s a run'
          + ('' if args.seed is None else f', seed {args.seed}'))
    print(f'{"metric":18} {"better":7} {"parent median [q1, q3]":38} '
          f'{"change median [q1, q3]":38} {"wins":>6} {"change":>9}  {"beyond IQR":10}  verdict')
    verdicts = {}
    for m in end_to_end:
        name, higher = m['name'], m['better'] == 'higher'
        parent = [r[name] for r in runs['parent']]
        change = [r[name] for r in runs['change']]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        delta = f'{(c2 - p2) / p2:+.1%}' if p2 else 'n/a'
        beyond = 'yes' if abs(c2 - p2) > p3 - p1 else 'no'
        verdicts[name] = verdict(m, parent, change, wins)
        print(f'{name:18} {m["better"]:7} '
              f'{f"{p2:.6g} [{p1:.6g}, {p3:.6g}]":38} {f"{c2:.6g} [{c1:.6g}, {c3:.6g}]":38} '
              f'{f"{wins}/{args.pairs}":>6} {delta:>9}  {beyond:10}  {verdicts[name]}'
              + (f'  ({losses} lost, {args.pairs - wins - losses} tied)'
                 if wins < args.pairs else ''), flush=True)
    print()
    return verdicts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('parent')
    ap.add_argument('change')
    ap.add_argument('--workload', required=True, help='one workload, or a comma list')
    ap.add_argument('--pairs', type=int, default=10)
    ap.add_argument('--seconds', type=float, default=20)
    ap.add_argument('--seed', type=int)
    args = ap.parse_args()
    with open(os.path.join(args.change, 'BENCHMARK.json')) as f:
        end_to_end = json.load(f)['end_to_end']

    # Absolute: each run joins the binary to its directory and also runs
    # with that directory as cwd, so a relative path would resolve twice.
    sides = {'parent': os.path.abspath(args.parent), 'change': os.path.abspath(args.change)}
    regressions = []
    for workload in args.workload.split(','):
        verdicts = compare(sides, workload, end_to_end, args)
        regressions += [f'{workload} {name}' for name, v in verdicts.items()
                        if v == 'regression']
    if regressions:
        sys.exit('regression: ' + ', '.join(regressions))


if __name__ == '__main__':
    main()
