#!/usr/bin/env python3
"""Checks on a stripd `/metrics` page, shared by the CI smoke jobs.

    metrics_check.py conservation SOURCE [--nonzero]
    metrics_check.py acked SOURCE ACKED_FILE --wait
    metrics_check.py acked SOURCE ACKED_FILE
    metrics_check.py stripes SOURCE COUNT
    metrics_check.py shutdown HOST:PORT PIDFILE OUTFILE KEY

SOURCE is a saved page or an http:// URL. Every subcommand but `shutdown`
asserts update-count conservation: ingested == applied + superseded + shed
+ queued. `shutdown` sends the wire shutdown frame, waits for the server
whose pid is in PIDFILE to exit, and requires its final report in OUTFILE
to carry the JSON key KEY.
"""
import argparse
import os
import re
import socket
import struct
import sys
import time
import urllib.request

STRIPE = re.compile(r'(strip_live_stripe_\w+)\{stripe="(\d+)"\}')


def scrape(source):
    """Returns (plain series, per-stripe series) of one page."""
    if source.startswith('http://'):
        page = urllib.request.urlopen(source).read().decode()
    else:
        page = open(source).read()
    vals, stripes = {}, {}
    for line in page.splitlines():
        if line.startswith('#') or not line.strip():
            continue
        name, _, value = line.rpartition(' ')
        m = STRIPE.match(name)
        if m:
            stripes.setdefault(m.group(1), {})[int(m.group(2))] = float(value)
        else:
            vals[name] = float(value)
    return vals, stripes


def conservation(vals, nonzero=False):
    ingested = vals['strip_live_updates_ingested_total']
    applied = vals['strip_live_updates_applied_total']
    superseded = vals['strip_live_updates_superseded_total']
    shed = vals['strip_live_updates_shed_total']
    queued = vals['strip_live_updates_queued']
    if nonzero:
        assert ingested > 0, 'no updates reached the server'
    assert ingested == applied + superseded + shed + queued, vals
    print(f'conservation holds: {ingested:.0f} = {applied:.0f} applied '
          f'+ {superseded:.0f} superseded + {shed:.0f} shed + {queued:.0f} queued')


def wait_for_acked(source, acked_file):
    """Quiesce: queue drained, every ingested update handed to the WAL, and
    the counters stable across a beat (the flusher writes on a 100us nap
    cadence, so stability means the segment is caught up)."""
    for _ in range(100):
        v, _ = scrape(source)
        if v['strip_live_updates_queued'] == 0 and \
           v['strip_live_wal_appended_total'] == v['strip_live_updates_ingested_total'] > 0:
            time.sleep(0.3)
            w, _ = scrape(source)
            if w['strip_live_wal_appended_total'] == v['strip_live_wal_appended_total']:
                acked = int(w['strip_live_wal_appended_total'])
                open(acked_file, 'w').write(str(acked))
                print(f'acked point: {acked} updates in the WAL')
                return w
        time.sleep(0.1)
    sys.exit('server never quiesced with a caught-up WAL')


def verify_acked(vals, acked_file):
    acked = int(open(acked_file).read())
    replayed = vals['strip_live_recovery_replayed_total']
    discarded = vals['strip_live_recovery_discarded_total']
    assert replayed == acked, f'acked {acked} but replayed {replayed:.0f}'
    assert discarded == 0, f'{discarded:.0f} records discarded from an acked tail'
    print(f'every acked update is back: {acked} acked = {replayed:.0f} replayed, 0 discarded')


def check_stripes(vals, stripes, count):
    assert vals['strip_live_stripes'] == count, vals.get('strip_live_stripes')
    ing = stripes['strip_live_stripe_updates_ingested']
    term = stripes['strip_live_stripe_updates_terminal']
    assert sorted(ing) == list(range(count)), \
        f'expected {count} stripe series, got {sorted(ing)}'
    for s in sorted(ing):
        assert ing[s] > 0, f'stripe {s} saw no updates'
    # Quiesced totals: what each stripe ingested must be terminal, and the
    # per-stripe series must sum to the merged counters.
    total = vals['strip_live_updates_ingested_total']
    assert sum(ing.values()) == total, (ing, total)
    queued = vals['strip_live_updates_queued']
    assert sum(term.values()) + queued == total, (term, queued, total)
    print('per-stripe conservation holds:',
          {s: int(ing[s]) for s in sorted(ing)}, f'sum={int(total)}')


def shutdown(addr, pid_file, out_file, key):
    host, _, port = addr.rpartition(':')
    with socket.create_connection((host, int(port))) as s:
        s.sendall(struct.pack('<I', 1) + b'\x06')
    pid = int(open(pid_file).read())
    for _ in range(100):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.1)
    else:
        os.kill(pid, 15)
        sys.exit('stripd did not exit')
    assert f'"{key}"' in open(out_file).read(), f'no "{key}" in {out_file}'
    print(f'stripd exited; final report carries "{key}"')


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest='check', required=True)
    p = sub.add_parser('conservation')
    p.add_argument('source')
    p.add_argument('--nonzero', action='store_true',
                   help='also require that some update arrived')
    p = sub.add_parser('acked')
    p.add_argument('source')
    p.add_argument('acked_file')
    p.add_argument('--wait', action='store_true',
                   help='poll until the WAL holds every ingested update and '
                        'write that count to ACKED_FILE; without it, check that '
                        'recovery replayed exactly the count in ACKED_FILE')
    p = sub.add_parser('stripes')
    p.add_argument('source')
    p.add_argument('count', type=int)
    p = sub.add_parser('shutdown')
    p.add_argument('addr')
    p.add_argument('pid_file')
    p.add_argument('out_file')
    p.add_argument('key')
    args = parser.parse_args()

    if args.check == 'shutdown':
        return shutdown(args.addr, args.pid_file, args.out_file, args.key)
    if args.check == 'acked' and args.wait:
        vals = wait_for_acked(args.source, args.acked_file)
    else:
        vals, stripes = scrape(args.source)
        if args.check == 'acked':
            verify_acked(vals, args.acked_file)
        elif args.check == 'stripes':
            check_stripes(vals, stripes, args.count)
    conservation(vals, nonzero=getattr(args, 'nonzero', False))


if __name__ == '__main__':
    main()
