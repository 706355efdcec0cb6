"""Machine and environment block recorded with every benchmark result."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Cache size strings by level as the kernel reports them for CPU 0."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        for index in sorted(os.listdir(base)):
            path = os.path.join(base, index)
            with open(os.path.join(path, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(path, "size")) as f:
                sizes[f"l{level}"] = f.read().strip()
    except OSError:
        pass
    return sizes


def _git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(root: str) -> str:
    """SHA-256 over the package sources, to key state kept between runs."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "collapsemc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _library_versions(env: dict) -> dict:
    """numpy, scipy and BLAS versions, read in a child with the pinned env."""
    code = ("import json, numpy, scipy\n"
            "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
            " 'blas': blas.get('name'), 'blas_version': blas.get('version')}))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60)
    if out.returncode != 0:
        return {"error": out.stderr.strip()[-300:]}
    return json.loads(out.stdout)


def environment(root: str, env: dict, seed: int, blas_threads: int) -> dict:
    caches = _cache_sizes()
    block = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "blas_threads": blas_threads,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }
    block.update(_library_versions(env))
    return block
