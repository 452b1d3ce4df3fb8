#!/usr/bin/env python3
"""Reachability gate: every lib module, exported value and optional label
is used by a surface.

A surface is any .ml under lib/, bin/, bench/, perfbench/ or examples/.
test/ is not one: code that only its tests keep alive is dead code.

  - A module lib/<dir>/m.ml is reached when a surface other than m.ml
    names M in code (a qualified name, an open, an include or an alias).
  - A `val v` of lib/<dir>/m.mli (nested `module Sub : sig` blocks
    included) is reached when a surface other than m.ml names it
    qualified -- M.v, Lib.M.v, M.Sub.v, or X.v after `module X = ...M` --
    or names a bare v in a file that opens M (`open M`, `let open M in`,
    `M.(`, `include M`).
  - Each `?label` in the type of such a val must be passed as ~label or
    ?label by some surface that reaches the val.

Comments, string literals and character literals are blanked before any
matching, so a name in a comment or a message reaches nothing. Entries
of .github/reachability-allowlist.txt exempt one value
(`Module.Sub.value reason`) or one label (`Module.value?label reason`);
an entry is stale, and fails the gate, when its value or label no
longer exists or a surface now reaches it.

Run from the repository root: python3 .github/reachability.py
"""

import glob
import os
import re
import sys

ALLOW = ".github/reachability-allowlist.txt"
SURFACE_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]

IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
UIDENT = r"[A-Z][A-Za-z0-9_']*"
LIDENT = r"[a-z_][A-Za-z0-9_']*"
PATH = UIDENT + r"(?:\s*\.\s*" + UIDENT + r")*"

CHAR_LIT = re.compile(
    r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])'"
)
QUOTED_OPEN = re.compile(r"\{([a-z_]*)\|")


def blank(text, start, end):
    """Spaces in place of text[start:end], keeping its newlines."""
    return re.sub(r"[^\n]", " ", text[start:end])


def skip_string(src, i):
    """Index just past the "..." literal that starts at src[i]."""
    i += 1
    while i < len(src):
        c = src[i]
        if c == "\\":
            i += 2
            continue
        if c == '"':
            return i + 1
        i += 1
    return i


def skip_quoted(src, i, ident):
    """Index just past the {ident|...|ident} literal that starts at src[i]."""
    close = "|" + ident + "}"
    j = src.find(close, i + len(ident) + 2)
    return len(src) if j < 0 else j + len(close)


def skip_comment(src, i):
    """Index just past the (possibly nested) comment that starts at src[i].
    Strings inside a comment are lexed, as OCaml does."""
    depth = 0
    while i < len(src):
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif src.startswith("*)", i):
            depth -= 1
            i += 2
            if depth == 0:
                return i
        elif src[i] == '"':
            i = skip_string(src, i)
        elif src[i] == "{" and QUOTED_OPEN.match(src, i):
            i = skip_quoted(src, i, QUOTED_OPEN.match(src, i).group(1))
        else:
            i += 1
    return i


def strip(src):
    """src with every comment, string literal and char literal blanked."""
    out = []
    i = last = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "(" and src.startswith("(*", i) and not src.startswith("(*)", i):
            j = skip_comment(src, i)
        elif c == '"':
            j = skip_string(src, i)
        elif c == "{" and QUOTED_OPEN.match(src, i):
            j = skip_quoted(src, i, QUOTED_OPEN.match(src, i).group(1))
        elif c == "'" and (i == 0 or not re.match(r"[A-Za-z0-9_']", src[i - 1])):
            m = CHAR_LIT.match(src, i)
            if not m:
                i += 1
                continue
            j = m.end()
        else:
            i += 1
            continue
        out.append(src[last:i])
        out.append(blank(src, i, j))
        i = last = j
    out.append(src[last:])
    return "".join(out)


def modname(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[:1].upper() + base[1:]


def split_path(p):
    return [s for s in re.split(r"\s*\.\s*", p.strip()) if s]


def library_names():
    names = set()
    for dune in glob.glob("lib/*/dune"):
        with open(dune) as f:
            m = re.search(r"\(name\s+(" + IDENT + r")\)", f.read())
        if m:
            names.add(m.group(1)[:1].upper() + m.group(1)[1:])
    return names


# ---- declarations -------------------------------------------------------

ITEM_START = re.compile(
    r"\b(val|type|module|exception|external|include|open|class|end|sig)\b"
)


def parse_mli(path):
    """[(module path, name, [optional labels], line)] of every val in path,
    vals inside `module type` signatures left out."""
    with open(path) as f:
        text = strip(f.read())
    top = modname(path)
    stack = []  # one entry per open `sig`: a module name, or None to skip
    vals = []
    tokens = list(re.finditer(
        r"\bmodule\s+type\s+" + UIDENT + r"\s*=\s*sig\b"
        r"|\bmodule\s+(" + UIDENT + r")\s*:\s*sig\b"
        r"|\bsig\b|\bend\b"
        r"|\bval\s+(" + LIDENT + r")\s*:", text))
    for m in tokens:
        s = m.group(0)
        if m.group(2):
            nxt = ITEM_START.search(text, m.end())
            body = text[m.end():nxt.start() if nxt else len(text)]
            labels = re.findall(r"\?(" + LIDENT + r")\s*:", body)
            if None not in stack:
                line = text.count("\n", 0, m.start()) + 1
                vals.append(([top] + stack, m.group(2), labels, line))
        elif s.startswith("module") and m.group(1):
            stack.append(m.group(1))
        elif s.startswith("module") or s == "sig":
            stack.append(None)
        elif s == "end" and stack:
            stack.pop()
    return vals


# ---- uses ---------------------------------------------------------------

class Uses:
    """What one surface file names, with comments and literals stripped."""

    def __init__(self, path, libs):
        with open(path) as f:
            text = strip(f.read())
        self.path = path
        self.libs = libs
        self.aliases = {}
        for m in re.finditer(r"\bmodule\s+(" + UIDENT + r")\s*=\s*(" + PATH + r")\b(?!\s*\()", text):
            self.aliases[m.group(1)] = split_path(m.group(2))
        opened = []
        for rx in (r"\bopen!?\s+(" + PATH + r")",
                   r"\binclude\s+(" + PATH + r")",
                   r"(?<![A-Za-z0-9_'.])(" + PATH + r")\s*\.\s*[({\[]"):
            opened += [split_path(m.group(1)) for m in re.finditer(rx, text)]
        self.opens = [self.norm(o) for o in opened]
        # Path.value, resolved through aliases and, for a path that does
        # not start at a library module, through every open of the file.
        self.qualified = set()
        for m in re.finditer(r"(?<![A-Za-z0-9_'])(" + PATH + r")\s*\.\s*(" + LIDENT + r")", text):
            r = self.norm(split_path(m.group(1)))
            for cand in [r] + [o + r for o in self.opens]:
                self.qualified.add((tuple(self.norm(cand)), m.group(2)))
        # The modules the file names: any path before a dot, and every
        # open, include and alias target.
        self.modules = set()
        paths = [split_path(m.group(1)) for m in
                 re.finditer(r"(?<![A-Za-z0-9_'])(" + PATH + r")\s*\.", text)]
        for p in paths + opened + list(self.aliases.values()):
            n = self.norm(p)
            if n:
                self.modules.add(n[0])
        self.bare = set(re.findall(r"(?<![A-Za-z0-9_'.~?])(" + LIDENT + r")\b", text))
        self.labels = set(re.findall(r"[~?](" + LIDENT + r")\b", text))

    def norm(self, p):
        """p with its first component's alias expanded and any leading
        library wrapper name dropped."""
        seen = 0
        while p and p[0] in self.aliases and seen < 8:
            p = self.aliases[p[0]] + p[1:]
            seen += 1
        while p and p[0] in self.libs:
            p = p[1:]
        return p

    def reaches(self, mpath, name):
        if (tuple(mpath), name) in self.qualified:
            return True
        return name in self.bare and any(o == mpath for o in self.opens)


def main():
    libs = library_names()
    surfaces = []
    for d in SURFACE_DIRS:
        surfaces += sorted(glob.glob(os.path.join(d, "**", "*.ml"), recursive=True))
    uses = [Uses(p, libs) for p in surfaces]
    errors = []

    for ml in sorted(glob.glob("lib/*/*.ml")):
        mod = modname(ml)
        if not any(u.path != ml and mod in u.modules for u in uses):
            errors.append((ml, f"module {mod} is named by no .ml under lib/, bin/, bench/, "
                               f"perfbench/ or examples/ but its own"))

    allow = {}
    with open(ALLOW) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                entry, _, reason = line.partition(" ")
                if not reason.strip():
                    errors.append((ALLOW, f"line {lineno}: entry {entry} gives no reason"))
                allow[entry] = lineno

    declared = set()
    for mli in sorted(glob.glob("lib/*/*.mli")):
        ml = mli[:-1]
        for mpath, name, labels, line in parse_mli(mli):
            key = ".".join(mpath + [name])
            declared.add(key)
            users = [u for u in uses if u.path != ml and u.reaches(mpath, name)]
            if key in allow:
                if users:
                    errors.append((ALLOW, f"allowlist entry {key} is stale: "
                                          f"{users[0].path} reaches it"))
            elif not users:
                errors.append((f"{mli}:{line}", f"value {key} is named by no .ml under lib/, bin/, "
                               f"bench/, perfbench/ or examples/ but its own; use it, "
                               f"delete it, or list it in {ALLOW} with a reason"))
                continue
            for l in labels:
                lkey = f"{key}?{l}"
                declared.add(lkey)
                passed = [u for u in users if l in u.labels]
                if lkey in allow:
                    if passed:
                        errors.append((ALLOW, f"allowlist entry {lkey} is stale: "
                                              f"{passed[0].path} passes it"))
                elif users and not passed:
                    errors.append((f"{mli}:{line}", f"optional label ?{l} of {key} is passed by no "
                                   f"surface that uses it; make it a constant, or list "
                                   f"{lkey} in {ALLOW} with a reason"))

    for entry, lineno in allow.items():
        if entry not in declared:
            errors.append((ALLOW, f"line {lineno}: allowlist entry {entry} names no val "
                                  f"(or optional label) that lib/*/*.mli declares"))

    for where, msg in errors:
        f, _, line = where.partition(":")
        loc = f"file={f},line={line}" if line else f"file={f}"
        print(f"::error {loc}::{msg}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
