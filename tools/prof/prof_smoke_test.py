#!/usr/bin/env python3
"""Smoke test of the sampler, the frame-keeping memcpy and resolve.py.

    prof_smoke_test.py <libprof_sampler.so> <libprof_memcpy.so> <prof_smoke> <resolve.py>

Samples prof_smoke (IOR pattern stamping and buffer copies) with and without
the memcpy interposer, resolves both profiles and checks the tables: the
pattern kernels are in the self table, main is on the inclusive stacks, and
with the interposer memcpy is named and its caller, copy_pass, is on them.
"""
import os
import subprocess
import sys
import tempfile


def profile(binary, preload, resolve, workdir):
    env = dict(os.environ, LD_PRELOAD=preload)
    run = subprocess.run([binary, "1.0"], cwd=workdir, env=env, capture_output=True, text=True)
    assert run.returncode == 0, f"prof_smoke failed: {run.stdout}{run.stderr}"
    profs = [f for f in os.listdir(workdir) if f.startswith("prof.") and f.endswith(".txt")]
    assert len(profs) == 1, f"expected one profile, found {profs}"
    path = os.path.join(workdir, profs[0])
    out = subprocess.run([sys.executable, resolve, path], capture_output=True, text=True,
                         check=True).stdout
    os.remove(path)
    samples = int(out.split("\n", 1)[0].split()[1])
    self_part, incl_part = out.split("== inclusive ==")
    return samples, self_part, incl_part


def main():
    sampler, memcpy_lib, binary, resolve = sys.argv[1:5]
    with tempfile.TemporaryDirectory() as workdir:
        samples, self_part, incl_part = profile(binary, sampler, resolve, workdir)
        assert samples >= 50, f"only {samples} samples in a 1 s CPU run"
        assert "daosim::ior::fill_pattern" in self_part or \
            "daosim::ior::check_pattern" in self_part, self_part
        assert "main" in incl_part.split(), incl_part

        samples, self_part, incl_part = profile(
            binary, f"{sampler}:{memcpy_lib}", resolve, workdir)
        assert samples >= 50, f"only {samples} samples in a 1 s CPU run"
        assert "memcpy" in self_part, self_part
        assert "copy_pass" in incl_part, incl_part
    print("prof smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
