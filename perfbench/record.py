"""Result stamps: source revision and host fingerprint.

Every result record carries the git sha (when the checkout has a ``.git``
directory), a digest of the program's sources (which also identifies a
checkout without git metadata) and a host fingerprint: CPU model and
count, Python, numpy and scipy versions.  :func:`comparable` refuses to
compare records whose fingerprints, workloads, seeds or run settings
differ.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path
from typing import Any, Dict, Optional


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def fingerprint() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def git_sha(root: Path) -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(root: Path) -> Dict[str, Any]:
    return {
        "git_sha": git_sha(root),
        "source_digest": source_digest(root / "src"),
        "host": fingerprint(),
    }


def comparable(a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    """``None`` when two records may be compared, else the reason not."""
    ha, hb = a["stamp"]["host"], b["stamp"]["host"]
    diff = sorted(k for k in set(ha) | set(hb) if ha.get(k) != hb.get(k))
    if diff:
        return "host fingerprints differ in " + ", ".join(
            f"{k} ({ha.get(k)!r} vs {hb.get(k)!r})" for k in diff
        )
    if a["workload"] != b["workload"]:
        return f"workloads differ ({a['workload']} vs {b['workload']})"
    if a["seed"] != b["seed"]:
        return f"seeds differ ({a['seed']} vs {b['seed']}): other seeds are other demand"
    if a["seconds"] != b["seconds"] or a["trace"] != b["trace"]:
        return "run settings (--seconds/--trace) differ"
    return None
