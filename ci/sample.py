#!/usr/bin/env python3
"""Where a program spends its time: a ptrace PC sampler for hosts without perf.

    sample.py [--interval-ms 5] [--top 25] [--thread PREFIX[,PREFIX...]]
              [--lines N] BINARY [ARGS...]

Runs BINARY ARGS (its stdout goes to this script's stderr) and, every
interval until it exits, attaches to each of its threads with ptrace, reads
the program counter, and detaches. With `--thread PREFIX` only threads whose
name (`/proc/PID/task/TID/comm`) starts with PREFIX are sampled, so idle
helper threads do not dilute the profile. A comma list samples the threads
of every prefix in one run and prints one table per prefix, each with its
own sample count and shares (a thread whose name matches several prefixes
counts in each of their tables). Each sample is symbolised with
`addr2line -f -i -C`, so a frame inlined into another counts for both.
A sample in a shared library is attributed to the nearest symbol at or
before it that `nm -D --defined-only` lists for the library: the frame
ranking names it `symbol [library]`, the line ranking
`library:symbol+offset`. Only exported symbols are listed, so a sample in
an internal routine (glibc's `__memmove_avx_unaligned_erms`, say) lands
on the exported symbol laid out before it; the offset tells such samples
apart from ones in the symbol itself. Such a sample also names its caller
in the binary: during the same attach the sampler reads up to
STACK_WORDS words up from the stack pointer (`PTRACE_PEEKDATA`) and takes
the first that lands in the binary's executable mapping, the return
address of the call that left the binary. The frame is then ranked as
`symbol [library] ← caller` (`← inner in outer` when the call site is
inlined), and the caller's inline chain counts in the inclusive shares,
so a futex `syscall` says which of the binary's functions made it. It
prints the sample count and, for the top frames, the leaf share (the
innermost frame of the sample) and the inclusive share (the frame appears
anywhere in the sample's inline chain). Only the inline chain is known: a
function's out-of-line callees are not in its inclusive share. With
`--lines N` it also ranks the N source lines that hold the most samples
(the innermost frame's `file:line`).

Busy and waiting samples are ranked apart. Before each attach the thread's
scheduler state is read from `/proc/PID/task/TID/stat`: a sample of a thread
in state `R` (running, or runnable and waiting for a CPU) is *on-CPU*, one in
any other state (`S` sleeping, `D` in an uninterruptible wait, ...) is
*off-CPU*. Each table is headed by the split, then ranks the on-CPU samples
— where the busy time goes, whatever share of the run the thread waited —
and then the off-CPU ones, whose leaf frames name what the thread waits in
(a futex `syscall`, `recv`, `clock_nanosleep`, ...). Each ranking's shares
are of its own samples. Standard library only (ctypes, /proc, addr2line,
nm); x86-64 Linux.
"""
import argparse
import bisect
import collections
import ctypes
import os
import re
import struct
import subprocess
import sys
import time

PTRACE_PEEKDATA, PTRACE_GETREGS, PTRACE_ATTACH, PTRACE_DETACH = 2, 12, 16, 17
WALL = 0x40000000
# struct user_regs_struct (x86-64): 27 registers, rip is the 17th, rsp the 20th.
REGS_WORDS, RIP, RSP = 27, 16, 19
# How far up the stack a library sample looks for its caller.
STACK_WORDS = 64
WORD_MASK = (1 << 64) - 1

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def first_return(tid, sp, in_text):
    """The first of the STACK_WORDS words at and above `sp` of the stopped
    thread `tid` that `in_text` accepts, or None."""
    for i in range(STACK_WORDS):
        ctypes.set_errno(0)
        word = libc.ptrace(PTRACE_PEEKDATA, tid, ctypes.c_void_p(sp + 8 * i), None)
        if word == -1 and ctypes.get_errno():
            return None
        if in_text(word & WORD_MASK):
            return word & WORD_MASK
    return None


def sample_pc(tid, in_text):
    """(pc, caller) of thread `tid`, or None if it could not be read. When
    `in_text` refuses the pc, `caller` is the first stack word it accepts
    (see `first_return`); otherwise it is None."""
    if libc.ptrace(PTRACE_ATTACH, tid, None, None) != 0:
        return None
    try:
        os.waitpid(tid, WALL)
        regs = (ctypes.c_ulonglong * REGS_WORDS)()
        if libc.ptrace(PTRACE_GETREGS, tid, None, ctypes.byref(regs)) != 0:
            return None
        pc = regs[RIP]
        return pc, None if in_text(pc) else first_return(tid, regs[RSP], in_text)
    except ChildProcessError:
        return None
    finally:
        libc.ptrace(PTRACE_DETACH, tid, None, None)


def thread_state(pid, tid):
    """The scheduler state letter of thread `tid` of process `pid` (`R`,
    `S`, `D`, ...), or '' once it has exited."""
    try:
        with open(f'/proc/{pid}/task/{tid}/stat') as f:
            stat = f.read()
    except OSError:
        return ''
    # The name in parentheses may hold spaces; the state follows it.
    return stat[stat.rindex(')') + 2:][:1]


def thread_name(pid, tid):
    """The name of thread `tid` of process `pid`, or '' once it has exited."""
    try:
        with open(f'/proc/{pid}/task/{tid}/comm') as f:
            return f.read().strip()
    except OSError:
        return ''


def mappings(pid):
    """(start, end, file offset, path) of every file-backed executable mapping."""
    out = []
    with open(f'/proc/{pid}/maps') as f:
        for line in f:
            parts = line.split(maxsplit=5)
            if len(parts) == 6 and 'x' in parts[1] and parts[5].startswith('/'):
                start, end = (int(x, 16) for x in parts[0].split('-'))
                out.append((start, end, int(parts[2], 16), parts[5].strip()))
    return out


def load_segments(path):
    """(file offset, vaddr, file size) of each PT_LOAD header of an ELF64 file."""
    with open(path, 'rb') as f:
        head = f.read(64)
        phoff, = struct.unpack_from('<Q', head, 32)
        phentsize, phnum = struct.unpack_from('<HH', head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from('<IIQQQQ', table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def to_vaddr(segs, offset):
    """The link-time address of file offset `offset`."""
    for p_offset, p_vaddr, p_filesz in segs:
        if p_offset <= offset < p_offset + p_filesz:
            return p_vaddr + offset - p_offset
    return offset


def dynamic_symbols(path):
    """([address], [name]) of the code symbols `nm -D --defined-only` lists
    for shared library `path`, by address; version suffixes dropped."""
    text = subprocess.run(['nm', '-D', '--defined-only', path],
                          capture_output=True, text=True).stdout
    syms = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in 'TtWwi':
            syms.append((int(parts[0], 16), parts[2].split('@')[0]))
    syms.sort()
    return [a for a, _ in syms], [n for _, n in syms]


def library_frame(symbols, lib, vaddr):
    """(frame, location) of link-time address `vaddr` of library `lib`: the
    nearest symbol at or before it, and that symbol plus the offset."""
    addrs, names = symbols
    i = bisect.bisect_right(addrs, vaddr) - 1
    if i < 0:
        return f'[{lib}]', f'{lib}:{vaddr:#x}'
    return f'{names[i]} [{lib}]', f'{lib}:{names[i]}+{vaddr - addrs[i]:#x}'


def source_line(loc):
    """`file:line` without the toolchain's checkout prefix or a discriminator."""
    loc = re.sub(r' \(discriminator \d+\)$', '', loc)
    loc = re.sub(r'^/rustc/[0-9a-f]+/', '', loc)
    cwd = os.getcwd() + os.sep
    return loc[len(cwd):] if loc.startswith(cwd) else loc


def symbolise(binary, addrs):
    """{vaddr: [(function, file:line), innermost first]} from one addr2line
    call."""
    out = {}
    if not addrs:
        return out
    text = subprocess.run(['addr2line', '-a', '-f', '-i', '-C', '-e', binary]
                          + [hex(a) for a in addrs],
                          capture_output=True, text=True, check=True).stdout
    current = None
    lines = text.splitlines()
    # After each `0x…` address line come (function, file:line) pairs.
    i = 0
    while i < len(lines):
        if re.fullmatch(r'0x[0-9a-f]+', lines[i]):
            current = out.setdefault(int(lines[i], 16), [])
            i += 1
            continue
        loc = lines[i + 1] if i + 1 < len(lines) else '??:0'
        current.append((re.sub(r'::h[0-9a-f]{16}$', '', lines[i]), source_line(loc)))
        i += 2
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--interval-ms', type=float, default=5.0)
    ap.add_argument('--top', type=int, default=25)
    ap.add_argument('--thread', metavar='PREFIX[,PREFIX...]', default='',
                    help='sample only threads whose name starts with a PREFIX; '
                         'one table per PREFIX')
    ap.add_argument('--lines', metavar='N', type=int, default=0,
                    help='also rank the N source lines holding the most samples')
    ap.add_argument('binary')
    ap.add_argument('args', nargs=argparse.REMAINDER)
    args = ap.parse_args()
    prefixes = args.thread.split(',')

    child = subprocess.Popen([args.binary] + args.args, stdout=sys.stderr)
    binary = os.path.realpath(args.binary)
    # Per prefix, one counter of (pc, caller) samples on-CPU and one off-CPU.
    pcs = {prefix: {True: collections.Counter(), False: collections.Counter()}
           for prefix in prefixes}
    # Per prefix, the off-CPU states seen.
    waits = {prefix: collections.Counter() for prefix in prefixes}
    maps = []
    # (start, end, file offset) of the binary's executable mappings.
    text = []

    def in_text(addr):
        return any(s <= addr < e for s, e, _ in text)

    while child.poll() is None:
        time.sleep(args.interval_ms / 1000)
        try:
            if not text:
                text = [(s, e, off) for s, e, off, path in mappings(child.pid)
                        if os.path.realpath(path) == binary]
            named = [(int(t), thread_name(child.pid, t))
                     for t in os.listdir(f'/proc/{child.pid}/task')]
            fresh = []
            for tid, name in named:
                matching = [p for p in prefixes if name.startswith(p)]
                state = thread_state(child.pid, tid) if matching else ''
                sample = sample_pc(tid, in_text) if state else None
                if sample is not None:
                    fresh.append(sample[0])
                    for prefix in matching:
                        pcs[prefix][state == 'R'][sample] += 1
                        if state != 'R':
                            waits[prefix][state] += 1
            if any(not any(s <= pc < e for s, e, _, _ in maps) for pc in fresh):
                maps = mappings(child.pid)
        except (FileNotFoundError, ProcessLookupError):
            break
    child.wait()

    # PC -> the binary's link-time address, symbolised below, or the frame
    # chain of a library symbol or an unknown mapping.
    segs = load_segments(binary)
    libs = {}
    where, chains = {}, {}
    samples = set().union(*(c for by_cpu in pcs.values() for c in by_cpu.values()))
    for pc in {pc for pc, _ in samples}:
        hit = next(((off + pc - s, path) for s, e, off, path in maps if s <= pc < e), None)
        if hit is None:
            chains[pc] = [('[unknown]', '[unknown]')]
        elif os.path.realpath(hit[1]) == binary:
            where[pc] = to_vaddr(segs, hit[0])
        else:
            path = hit[1]
            if path not in libs:
                libs[path] = (load_segments(path), dynamic_symbols(path))
            lib_segs, symbols = libs[path]
            vaddr = to_vaddr(lib_segs, hit[0])
            chains[pc] = [library_frame(symbols, os.path.basename(path), vaddr)]
    # A caller is a return address: its call site is the byte before it.
    call_sites = {caller: to_vaddr(segs, off + caller - s) - 1
                  for _, caller in samples if caller is not None
                  for s, e, off in text if s <= caller < e}
    frames = symbolise(binary, sorted(set(where.values()) | set(call_sites.values())))
    resolved = {sample: sample_chain(sample, chains, frames, where, call_sites)
                for sample in samples}

    if not any(sum(c.values()) for by_cpu in pcs.values() for c in by_cpu.values()):
        sys.exit(f'no samples (no thread named {args.thread}*?)' if args.thread else 'no samples')
    command = " ".join([args.binary] + args.args)
    for i, prefix in enumerate(prefixes):
        if i:
            print()
        on, off = pcs[prefix][True], pcs[prefix][False]
        n_on, n_off = sum(on.values()), sum(off.values())
        total = n_on + n_off
        threads = f' (threads {prefix}*)' if prefix else ''
        print(f'{total} samples{threads} of {command}')
        if not total:
            continue
        states = ', '.join(f'{s} {n}' for s, n in waits[prefix].most_common())
        print(f'on-CPU (R) {n_on} ({n_on / total:.1%}), '
              f'off-CPU {n_off} ({n_off / total:.1%}{": " + states if states else ""})')
        for heading, counter in (('on-CPU', on), ('off-CPU', off)):
            print(f'\n{heading}: {sum(counter.values())} samples')
            table(counter, resolved, args)
    return child.returncode


def sample_chain(sample, chains, frames, where, call_sites):
    """The [(function, file:line)] chain of a (pc, caller) sample, innermost
    first. A library frame with a known caller is named `frame ← caller`
    and followed by the call site's inline chain."""
    pc, caller = sample
    chain = chains.get(pc) or frames.get(where[pc]) or [('??', '??')]
    site = frames.get(call_sites.get(caller))
    if not site:
        return chain
    inner, outer = site[0][0], site[-1][0]
    label = inner if inner == outer else f'{inner} in {outer}'
    return [(f'{chain[0][0]} ← {label}', chain[0][1])] + site


def table(samples, resolved, args):
    """Prints the frame (and, with --lines, the source line) ranking of the
    (pc, caller) counts in `samples`."""
    total = sum(samples.values())
    if not total:
        return
    leaf, incl, lines = collections.Counter(), collections.Counter(), collections.Counter()
    for sample, n in samples.items():
        chain = resolved[sample]
        leaf[chain[0][0]] += n
        lines[chain[0][1]] += n
        for name in {name for name, _ in chain}:
            incl[name] += n

    print(f'{"leaf":>7} {"incl":>7}  frame')
    for name, n in incl.most_common(args.top):
        print(f'{leaf[name] / total:7.1%} {n / total:7.1%}  {name}')
    if args.lines:
        print(f'\n{"leaf":>7}  source line')
        for loc, n in lines.most_common(args.lines):
            print(f'{n / total:7.1%}  {loc}')


if __name__ == '__main__':
    sys.exit(main())
