#!/usr/bin/env python3
"""Fail on broken intra-repo markdown links in README/DESIGN/docs, and on
a router-key list in docs/REPRODUCING.md that differs from the registry.

Checks every relative link target for existence and, when the target is a
markdown file with a #fragment (or a bare same-file #fragment), that a
matching heading exists. External links (http/https/mailto) are ignored.
The documented router keys (the backticked keys after "Router registry
keys:", up to the first full stop) must equal the `r.add("...")` keys of
src/route/registry.cpp, in registration order.
Run from anywhere; paths resolve against the repository root.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# [text](target) — good enough for these docs; skips fenced code blocks.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")

REGISTRY_SRC = REPO / "src" / "route" / "registry.cpp"
KEY_DOC = REPO / "docs" / "REPRODUCING.md"
KEY_LIST_INTRO = "Router registry keys:"
REGISTRY_KEY_RE = re.compile(r'\br\.add\("([^"]+)"')


def doc_files():
    files = [REPO / "README.md", REPO / "DESIGN.md"]
    files += sorted((REPO / "docs").glob("**/*.md"))
    return [f for f in files if f.exists()]


def heading_slugs(path: Path):
    """GitHub-style slugs of every heading in a markdown file."""
    slugs = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if not match:
            continue
        text = match.group(1).strip().lower()
        slug = re.sub(r"[^\w\- ]", "", text).replace(" ", "-")
        slugs.add(slug)
    return slugs


def links_in(path: Path):
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            yield lineno, match.group(1)


def registry_keys():
    """Keys registerBuiltins adds, in registration order."""
    return REGISTRY_KEY_RE.findall(REGISTRY_SRC.read_text(encoding="utf-8"))


def documented_keys():
    """Backticked keys listed after KEY_LIST_INTRO up to the first full
    stop, or None when the doc has no such list."""
    text = KEY_DOC.read_text(encoding="utf-8")
    start = text.find(KEY_LIST_INTRO)
    if start < 0:
        return None
    listing = text[start + len(KEY_LIST_INTRO):].split(".", 1)[0]
    return re.findall(r"`([^`]+)`", listing)


def key_list_errors():
    keys = registry_keys()
    documented = documented_keys()
    where = KEY_DOC.relative_to(REPO)
    source = REGISTRY_SRC.relative_to(REPO)
    if not keys:
        return [f"{source}: no r.add(\"...\") router keys found"]
    if documented is None:
        return [f"{where}: no '{KEY_LIST_INTRO}' list"]
    if documented != keys:
        return [f"{where}: router keys {documented} differ from the "
                f"keys registered in {source}: {keys}"]
    return []


def main() -> int:
    errors = key_list_errors()
    for doc in doc_files():
        for lineno, target in links_in(doc):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            where = f"{doc.relative_to(REPO)}:{lineno}"
            path_part, _, fragment = target.partition("#")
            if path_part:
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    errors.append(f"{where}: broken link target '{target}'")
                    continue
            else:
                resolved = doc
            if fragment and resolved.suffix == ".md":
                if fragment not in heading_slugs(resolved):
                    errors.append(
                        f"{where}: missing anchor '#{fragment}' in "
                        f"{resolved.relative_to(REPO)}")

    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"{len(errors)} doc error(s)", file=sys.stderr)
        return 1
    print(f"checked {len(doc_files())} docs, all intra-repo links resolve "
          f"and the router-key list matches the registry")
    return 0


if __name__ == "__main__":
    sys.exit(main())
