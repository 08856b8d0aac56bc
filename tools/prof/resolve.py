#!/usr/bin/env python3
"""Resolves a prof_sampler profile (prof.<pid>.txt) into self and inclusive tables.

    python3 tools/prof/resolve.py prof.12345.txt [--top 30]

Each sampled address is mapped to its ELF file through the recorded
executable mappings and named with `addr2line -f -C`. Return addresses are
looked up one byte back, at the call instruction. The self table counts the
leaf function of each sample; the inclusive table counts every function on
the sampled stack once per sample. libc frames come out misnamed: glibc's
internal copy and allocator symbols are not in its symbol tables, so
addr2line names the nearest exported one (README.md).
"""
import argparse
import bisect
import collections
import struct
import subprocess
import sys


def load_profile(path):
    samples, maps = [], []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "s":
                samples.append([int(x, 16) for x in parts[1:]])
            elif parts[0] == "m":
                lo, hi = (int(x, 16) for x in parts[1].split("-"))
                maps.append((lo, hi, int(parts[2], 16), " ".join(parts[3:])))
    maps.sort()
    return samples, maps


def elf_layout(path):
    """(is_exec, [(p_offset, p_vaddr, p_filesz)] of PT_LOAD) for a 64-bit ELF."""
    with open(path, "rb") as f:
        hdr = f.read(64)
        if hdr[:4] != b"\x7fELF" or hdr[4] != 2:
            return False, []
        e_type = struct.unpack_from("<H", hdr, 16)[0]
        e_phoff = struct.unpack_from("<Q", hdr, 32)[0]
        e_phentsize, e_phnum = struct.unpack_from("<HH", hdr, 54)
        f.seek(e_phoff)
        table = f.read(e_phentsize * e_phnum)
    loads = []
    for i in range(e_phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * e_phentsize)
        if p_type == 1:
            loads.append((p_offset, p_vaddr, p_filesz))
    return e_type == 2, loads


def link_address(addr, mapping, layout):
    """The address addr2line expects for a runtime address inside `mapping`."""
    lo, _, off, _ = mapping
    is_exec, loads = layout
    if is_exec:
        return addr
    file_off = addr - lo + off
    for p_offset, p_vaddr, p_filesz in loads:
        if p_offset <= file_off < p_offset + p_filesz:
            return file_off - p_offset + p_vaddr
    return file_off


def resolve(samples, maps):
    """Per sample, the list of function names, leaf first."""
    starts = [m[0] for m in maps]
    wanted = collections.defaultdict(set)  # path -> link addresses
    keyed = []  # per sample: [(path, link address) or None]
    layouts = {}
    for stack in samples:
        keys = []
        for depth, addr in enumerate(stack):
            at = addr if depth == 0 else addr - 1
            i = bisect.bisect_right(starts, at) - 1
            if i < 0 or at >= maps[i][1]:
                keys.append(None)
                continue
            path = maps[i][3]
            if path not in layouts:
                try:
                    layouts[path] = elf_layout(path)
                except OSError:
                    layouts[path] = (False, [])
            link = link_address(at, maps[i], layouts[path])
            wanted[path].add(link)
            keys.append((path, link))
        keyed.append(keys)

    names = {}
    for path, addrs in wanted.items():
        addrs = sorted(addrs)
        try:
            out = subprocess.run(["addr2line", "-f", "-C", "-e", path],
                                 input="".join(f"{a:x}\n" for a in addrs),
                                 capture_output=True, text=True, check=True).stdout.split("\n")
        except (OSError, subprocess.CalledProcessError):
            out = []
        for i, a in enumerate(addrs):
            fn = out[2 * i] if 2 * i < len(out) else "??"
            names[(path, a)] = fn if fn != "??" else f"?? ({path.rsplit('/', 1)[-1]}+{a:x})"
    return [[names[k] if k else "??" for k in keys] for keys in keyed]


def table(title, counts, total, top):
    lines = [f"== {title} ==", f"{'%':>7} {'samples':>8}  function"]
    for fn, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top]:
        lines.append(f"{100.0 * n / total:6.1f}% {n:8d}  {fn[:160]}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=30)
    args = ap.parse_args()
    samples, maps = load_profile(args.profile)
    if not samples:
        print("no samples", file=sys.stderr)
        return 1
    stacks = resolve(samples, maps)
    self_counts = collections.Counter(s[0] for s in stacks)
    incl_counts = collections.Counter(fn for s in stacks for fn in set(s))
    total = len(stacks)
    print(f"samples: {total}")
    print("\n".join(table("self", self_counts, total, args.top)))
    print()
    print("\n".join(table("inclusive", incl_counts, total, args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
