#!/usr/bin/env python3
"""Fail on broken intra-repo markdown links and backticked repo paths in
README/DESIGN/docs, and on a router-key list in docs/REPRODUCING.md that
differs from the registry.

Checks every relative link target for existence and, when the target is a
markdown file with a #fragment (or a bare same-file #fragment), that a
matching heading exists. External links (http/https/mailto) are ignored.
Every word of an inline code span that names a repo path must exist: a
path under one of REPO_DIRS, or a root-level *.json or *.md file. A
trailing :line suffix is dropped and each {a,b} alternative is checked.
Paths relative to src/ (`route/planner.h`) are not checked.
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
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
REPO_DIRS = ("src/", "bench/", "scripts/", "tests/", "docs/", "openbench/",
             "examples/")
ROOT_FILE_RE = re.compile(r"[\w.-]+\.(?:json|md)")
BRACES_RE = re.compile(r"\{([^{}]*)\}")

REGISTRY_SRC = REPO / "src" / "route" / "registry.cpp"
KEY_DOC = REPO / "docs" / "REPRODUCING.md"
KEY_LIST_INTRO = "Router registry keys:"
REGISTRY_KEY_RE = re.compile(r'\br\.add\("([^"]+)"')


def doc_files():
    files = [REPO / "README.md", REPO / "DESIGN.md"]
    files += sorted((REPO / "docs").glob("**/*.md"))
    return [f for f in files if f.exists()]


def prose_lines(path: Path):
    """(lineno, line) for every line outside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def heading_slugs(path: Path):
    """GitHub-style slugs of every heading in a markdown file."""
    slugs = set()
    for _, line in prose_lines(path):
        match = HEADING_RE.match(line)
        if not match:
            continue
        text = match.group(1).strip().lower()
        slug = re.sub(r"[^\w\- ]", "", text).replace(" ", "-")
        slugs.add(slug)
    return slugs


def links_in(path: Path):
    for lineno, line in prose_lines(path):
        for match in LINK_RE.finditer(line):
            yield lineno, match.group(1)


def repo_paths_in(path: Path):
    """(lineno, word) for each word of an inline code span that names a
    repo path, with any :line suffix dropped."""
    for lineno, line in prose_lines(path):
        for match in CODE_SPAN_RE.finditer(line):
            for word in match.group(1).split():
                word = re.sub(r"(:[\d-]+)+$", "", word)
                if word.startswith(REPO_DIRS) or ROOT_FILE_RE.fullmatch(word):
                    yield lineno, word


def repo_path_exists(word):
    """True when the path exists; `a.{h,cpp}` needs `a.h` and `a.cpp`."""
    match = BRACES_RE.search(word)
    if not match:
        return (REPO / word).exists()
    return all((REPO / (word[:match.start()] + option +
                        word[match.end():])).exists()
               for option in match.group(1).split(","))


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
        for lineno, word in repo_paths_in(doc):
            if not repo_path_exists(word):
                errors.append(f"{doc.relative_to(REPO)}:{lineno}: "
                              f"backticked path '{word}' does not exist")

    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"{len(errors)} doc error(s)", file=sys.stderr)
        return 1
    print(f"checked {len(doc_files())} docs, all intra-repo links and "
          f"backticked repo paths resolve and the router-key list matches "
          f"the registry")
    return 0


if __name__ == "__main__":
    sys.exit(main())
