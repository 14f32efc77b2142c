#!/usr/bin/env python3
"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, collects the names each package
exports via ``__all__`` (the curated public API), and writes a markdown
reference with each item's signature and first docstring line:

    python tools/gen_api_docs.py [--out docs/API.md] [--check]

``--check`` exits nonzero if the file on disk is stale (CI-style drift
detection).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

PACKAGES = [
    "repro.sim",
    "repro.devices",
    "repro.core",
    "repro.workload",
    "repro.inference",
    "repro.tiering",
    "repro.ecc",
    "repro.endurance",
    "repro.energy",
    "repro.analysis",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def render_package(name: str) -> str:
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    lines = [f"## `{name}`", ""]
    summary = first_line(module)
    if summary:
        lines += [summary, ""]
    classes, functions, other = [], [], []
    for item_name in sorted(exported):
        item = getattr(module, item_name)
        if inspect.isclass(item):
            classes.append((item_name, item))
        elif inspect.isfunction(item):
            functions.append((item_name, item))
        else:
            other.append((item_name, item))
    if classes:
        lines.append("### Classes")
        lines.append("")
        for item_name, item in classes:
            lines.append(f"- **`{item_name}`** — {first_line(item)}")
        lines.append("")
    if functions:
        lines.append("### Functions")
        lines.append("")
        for item_name, item in functions:
            lines.append(
                f"- **`{item_name}{signature_of(item)}`** — {first_line(item)}"
            )
        lines.append("")
    if other:
        lines.append("### Data")
        lines.append("")
        for item_name, item in other:
            kind = type(item).__name__
            lines.append(f"- **`{item_name}`** (`{kind}`)")
        lines.append("")
    return "\n".join(lines)


def render() -> str:
    header = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py` — do not edit by hand.",
        "Every name below is part of the curated public API (exported via",
        "its package's `__all__`).",
        "",
    ]
    body = [render_package(name) for name in PACKAGES]
    return "\n".join(header) + "\n" + "\n".join(body)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="docs/API.md")
    parser.add_argument("--check", action="store_true",
                        help="fail if the file on disk is stale")
    args = parser.parse_args()
    content = render()
    path = pathlib.Path(args.out)
    if args.check:
        if not path.exists() or path.read_text() != content:
            print(f"{path} is stale; regenerate with tools/gen_api_docs.py")
            return 1
        print(f"{path} is current")
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)
    print(f"wrote {path} ({len(content.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
