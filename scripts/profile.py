#!/usr/bin/env python3
"""A flat sampling profiler for one child process (x86-64 Linux, Python 3).

    scripts/profile.py [--hz N] [--top K] [--stacks] [--within NAME]
                       [--by-crate] -- <command> [<arg>...]

Runs <command> and, about N times a second, stops its main thread with
PTRACE_INTERRUPT, reads its registers with PTRACE_GETREGS and lets it
run on (PTRACE_SEIZE, so only this child and only that thread are
traced; threads it spawns run untraced). Each sample's RIP is mapped to
a symbol of the executable: the load base of a PIE comes from
/proc/<pid>/maps, the symbols from `nm -C`. Addresses in other mappings
are named by the mapped file, `[libc.so.6]` say.

Prints, on stderr after the child exits, the symbols with the largest
share of samples (self time), and exits with the child's exit code.

--stacks walks the frame-pointer chain from RBP at each sample and adds
each symbol's inclusive share: build the target with
RUSTFLAGS="-C force-frame-pointers=yes", or the walk stops at the first
frame that does not keep one. --within NAME (implies --stacks) counts
only the samples whose stack has a symbol containing NAME and gives the
shares of those. --by-crate also sums self time by the symbol's first
path segment (`ftm_crypto`, `core`, `[libc.so.6]`).

Example, from the repository root:

    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    python3 scripts/profile.py -- benchmark/target/release/ftm-benchmark \\
        --workload sim-hr-k512 --seconds 3 --trace 0
"""

import argparse
import bisect
import ctypes
import os
import re
import signal
import struct
import subprocess
import sys
import time

PTRACE_GETREGS = 12
PTRACE_CONT = 7
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000

# struct user_regs_struct on x86-64: 27 unsigned longs.
REG_RBP, REG_RIP = 4, 16
MAX_FRAMES = 256


class Regs(ctypes.Structure):
    _fields_ = [("r", ctypes.c_ulong * 27)]


libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(request, pid, addr=0, data=0):
    if libc.ptrace(request, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({request}): {os.strerror(err)}")


class Symbols:
    """Address → name for the executable (via `nm -C`) and its mappings."""

    def __init__(self, pid):
        self.exe = os.readlink(f"/proc/{pid}/exe")
        with open(self.exe, "rb") as f:
            # e_type 3 is ET_DYN (position independent): nm prints
            # addresses relative to the load base.
            pie = struct.unpack("<H", f.read(18)[16:18])[0] == 3
        self.maps = []
        base = None
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                fields = line.split()
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                path = fields[5] if len(fields) > 5 else ""
                if path == self.exe and int(fields[2], 16) == 0 and base is None:
                    base = lo
                self.maps.append((lo, hi, path))
        self.base = base if pie and base is not None else 0
        out = subprocess.run(
            ["nm", "-C", "--defined-only", "-S", self.exe],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        syms = []
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "tTwW":
                name = re.sub(r"::h[0-9a-f]{16}$", "", parts[3])
                syms.append((int(parts[0], 16), int(parts[1], 16), name))
        syms.sort()
        self.addrs = [s[0] for s in syms]
        self.syms = syms

    def name(self, addr):
        rel = addr - self.base
        i = bisect.bisect_right(self.addrs, rel) - 1
        if i >= 0:
            start, size, name = self.syms[i]
            if rel < start + max(size, 1):
                return name
        for lo, hi, path in self.maps:
            if lo <= addr < hi:
                return f"[{os.path.basename(path) or 'anon'}]"
        return "[unknown]"


def stack(mem, rip, rbp):
    """RIP, then the return address of each frame on the RBP chain."""
    frames = [rip]
    while rbp and len(frames) < MAX_FRAMES:
        try:
            next_rbp, ret = struct.unpack("<QQ", os.pread(mem, 16, rbp))
        except (OSError, OverflowError, struct.error):
            break
        if not ret:
            break
        frames.append(ret)
        if next_rbp <= rbp:
            break
        rbp = next_rbp
    return frames


def wait_stop(pid):
    """Waits for the interrupt stop, passing on any signal the child gets
    meanwhile. Returns None once the child is stopped, else its exit code."""
    while True:
        _, status = os.waitpid(pid, WALL)
        if os.WIFEXITED(status):
            return os.WEXITSTATUS(status)
        if os.WIFSIGNALED(status):
            return 128 + os.WTERMSIG(status)
        if status >> 16 == PTRACE_EVENT_STOP:
            return None
        ptrace(PTRACE_CONT, pid, 0, os.WSTOPSIG(status))


def report(counts, incl, total, args, out):
    if total == 0:
        print("profile: no samples", file=out)
        return
    print(f"profile: {total} samples at {args.hz} Hz"
          + (f" within {args.within}" if args.within else ""), file=out)
    header = "  self%  " + (" incl%  " if args.stacks else "") + "samples  symbol"
    print(header, file=out)
    for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[: args.top]:
        inc = f"{100 * incl.get(name, 0) / total:5.1f}%  " if args.stacks else ""
        print(f"  {100 * n / total:5.1f}%  {inc}{n:7d}  {name}", file=out)
    if args.stacks:
        print("by inclusive share:", file=out)
        for name, n in sorted(incl.items(), key=lambda kv: (-kv[1], kv[0]))[: args.top]:
            print(f"  {100 * n / total:5.1f}%  {n:7d}  {name}", file=out)
    if args.by_crate:
        crates = {}
        for name, n in counts.items():
            head = name.lstrip("<").split("::")[0].split(" as ")[0]
            crates[head] = crates.get(head, 0) + n
        print("self time by crate:", file=out)
        for name, n in sorted(crates.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"  {100 * n / total:5.1f}%  {n:7d}  {name}", file=out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--hz", type=int, default=500, help="samples per second (500)")
    ap.add_argument("--top", type=int, default=25, help="symbols to print (25)")
    ap.add_argument("--stacks", action="store_true", help="walk frame pointers")
    ap.add_argument("--within", help="only samples whose stack has this symbol")
    ap.add_argument("--by-crate", action="store_true", help="sum self time by crate")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    if args.command[:1] == ["--"]:
        args.command = args.command[1:]
    if not args.command or args.hz <= 0:
        ap.error("give a sampling rate above 0 and a command after --")
    args.stacks = args.stacks or bool(args.within)

    child = subprocess.Popen(args.command)
    pid = child.pid
    try:
        ptrace(PTRACE_SEIZE, pid)
    except OSError as e:
        child.kill()
        sys.exit(f"profile.py: cannot trace {args.command[0]}: {e}")
    syms = None
    mem = os.open(f"/proc/{pid}/mem", os.O_RDONLY) if args.stacks else None
    counts, incl, total = {}, {}, 0
    regs = Regs()
    period = 1.0 / args.hz
    code = None
    try:
        while code is None:
            time.sleep(period)
            try:
                ptrace(PTRACE_INTERRUPT, pid)
            except OSError:
                code = wait_stop(pid)
                break
            code = wait_stop(pid)
            if code is not None:
                break
            # Read the maps at the first stop: by then exec has mapped the
            # whole image (Popen returns before it has).
            syms = syms or Symbols(pid)
            ptrace(PTRACE_GETREGS, pid, 0, ctypes.addressof(regs))
            rip, rbp = regs.r[REG_RIP], regs.r[REG_RBP]
            frames = stack(mem, rip, rbp) if args.stacks else [rip]
            ptrace(PTRACE_CONT, pid)
            names = [syms.name(a if i == 0 else a - 1) for i, a in enumerate(frames)]
            if args.within and not any(args.within in n for n in names):
                continue
            total += 1
            counts[names[0]] = counts.get(names[0], 0) + 1
            for name in set(names):
                incl[name] = incl.get(name, 0) + 1
    except KeyboardInterrupt:
        os.kill(pid, signal.SIGKILL)
        code = 130
    report(counts, incl, total, args, sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
