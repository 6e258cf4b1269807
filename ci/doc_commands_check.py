#!/usr/bin/env python3
"""Checks that the commands the docs quote name things that exist.

    doc_commands_check.py [ROOT]

Reads every `cargo run|bench|test ...` inside a fenced block or an inline
code span of the files in DOCS and resolves its `-p PKG` (or
`--manifest-path`, or neither: the root package) and each `--bin`,
`--bench`, `--example` or `--test` target against the manifests and the
directories cargo auto-discovers targets from; every `python3 ci/X.py`
quoted the same way must name a script that exists, and every figure name
(`fig…`) in a quoted `repro …` command must be one `figure_ids!` declares
in FIGURES. Every `DESIGN.md §N` / `DESIGN §N` (and each `§M` chained to
it by `,`, `/`, `and` or `or`) in CITING and CITING_GLOBS must name
a `## N.` heading of DESIGN.md, and a quoted phrase right after the
citation (`§5 "Clock discipline"`) must appear in that section. Exits 1
listing every command, citation or phrase that does not resolve. Standard
library only.
"""
import glob
import os
import re
import sys
import tomllib

DOCS = [
    'README.md',
    'EXPERIMENTS.md',
    'DESIGN.md',
    'benchmark/README.md',
    '.claude/skills/verify/SKILL.md',
]
# Files whose `DESIGN §N` citations must resolve, besides every match of
# CITING_GLOBS.
CITING = [
    'README.md',
    'EXPERIMENTS.md',
    'ROADMAP.md',
    '.claude/skills/verify/SKILL.md',
]
CITING_GLOBS = [
    'crates/**/*.rs',
    'tests/**/*.rs',
    'src/**/*.rs',
    'examples/**/*.rs',
    '.github/workflows/*.yml',
]
CITATION = re.compile(r'DESIGN(?:\.md)?\s+§\d+(?:\s*(?:,|/|and|or)\s*§\d+)*')
# A quoted phrase directly after the last number of a citation.
PHRASE = re.compile(r'\s*["“]([^"”]+)["”]')
HEADING = re.compile(r'^## (\d+)\. ', re.M)
# flag -> (manifest table, directory cargo auto-discovers the kind from)
KINDS = {
    '--bin': ('bin', 'src/bin'),
    '--bench': ('bench', 'benches'),
    '--example': ('example', 'examples'),
    '--test': ('test', 'tests'),
}
CARGO = re.compile(r'\bcargo\s+(?:run|bench|test)\b[^`]*')
SCRIPT = re.compile(r'\bpython3\s+(ci/\S+\.py)')
REPRO = re.compile(r'\brepro\s[^`]*')
FIGURE = re.compile(r'fig[a-z0-9]+')
FIGURES = 'crates/experiments/src/figures.rs'
# Where cargo's own arguments end: the program's arguments or the shell's.
END = {'--', '#', '|', '||', '&&', ';', '>', '2>&1'}


def package(directory):
    """Name and {kind: target names} of the package in `directory`."""
    with open(os.path.join(directory, 'Cargo.toml'), 'rb') as f:
        manifest = tomllib.load(f)
    name = manifest['package']['name']
    targets = {}
    for table, sub in KINDS.values():
        found = {t['name'] for t in manifest.get(table, []) if 'name' in t}
        for path in glob.glob(os.path.join(directory, sub, '*')):
            stem, ext = os.path.splitext(os.path.basename(path))
            if ext == '.rs' or os.path.isfile(os.path.join(path, 'main.rs')):
                found.add(stem)
        targets[table] = found
    if os.path.isfile(os.path.join(directory, 'src/main.rs')):
        targets['bin'].add(name)
    return name, targets


def workspace(root):
    """{package name: targets} of the root workspace; the root package's name."""
    with open(os.path.join(root, 'Cargo.toml'), 'rb') as f:
        members = tomllib.load(f)['workspace']['members']
    root_name, root_targets = package(root)
    packages = {root_name: root_targets}
    for pattern in members:
        for directory in sorted(glob.glob(os.path.join(root, pattern))):
            if os.path.isfile(os.path.join(directory, 'Cargo.toml')):
                name, targets = package(directory)
                packages[name] = targets
    return packages, root_name


def figure_names(root):
    """The names the `figure_ids!` list in FIGURES declares."""
    with open(os.path.join(root, FIGURES)) as f:
        text = f.read()
    block = text[text.index('figure_ids! {'):]
    return set(re.findall(r'=\s*"(\w+)"', block[:block.index('\n}')]))


def unknown_figures(figures, command):
    """The `fig…` words of a `repro …` command that name no figure."""
    words = []
    for word in command.split():
        if word in END - {'--'}:
            break
        words.append(word)
    return [w for w in words if FIGURE.fullmatch(w) and w not in figures]


def commands(text, pattern=CARGO):
    """(offset, command) of every quoted match of `pattern` in `text`."""
    # A fenced line ending in a backslash continues on the next; blanking
    # the pair joins them and keeps every offset where it was.
    text = text.replace('\\\n', '  ')
    fenced = False
    offset = 0
    for line in text.splitlines(keepends=True):
        if line.lstrip().startswith('```'):
            fenced = not fenced
        elif fenced:
            for m in pattern.finditer(line):
                yield offset + m.start(), m.group()
        offset += len(line)
    prose = re.sub(r'^```.*?^```', lambda m: ' ' * len(m.group()), text,
                   flags=re.S | re.M)
    for span in re.finditer(r'`([^`]+)`', prose):
        for m in pattern.finditer(span.group(1)):
            yield span.start(1) + m.start(), m.group()


def design_sections(root):
    """{N: text of DESIGN.md's `## N.` section, whitespace collapsed}."""
    with open(os.path.join(root, 'DESIGN.md')) as f:
        text = f.read()
    starts = list(HEADING.finditer(text))
    ends = [m.start() for m in starts[1:]] + [len(text)]
    return {m.group(1): ' '.join(text[m.start():end].split())
            for m, end in zip(starts, ends)}


def citing_files(root):
    """Workspace-relative paths of every file whose citations are checked."""
    return CITING + sorted(
        path for pattern in CITING_GLOBS
        for path in glob.glob(pattern, root_dir=root, recursive=True))


def uncommented(text):
    """`text` with line-leading comment markers blanked, so a citation or a
    phrase broken across comment lines reads as prose; every offset stays
    where it was."""
    return re.sub(r'(?m)^(\s*)(//[/!]?|#)',
                  lambda m: m.group(1) + ' ' * len(m.group(2)), text)


def citations(text, sections):
    """(offset, complaint) of every citation in `text` that does not resolve."""
    for m in CITATION.finditer(text):
        numbers = re.findall(r'§(\d+)', m.group())
        for n in numbers:
            if n not in sections:
                yield m.start(), f'no section {n} in DESIGN.md: {m.group()}'
        phrase = PHRASE.match(text, m.end())
        last = numbers[-1]
        if phrase and last in sections:
            words = ' '.join(phrase.group(1).split())
            if words not in sections[last]:
                yield m.start(), (f'"{words}" is not in DESIGN.md section '
                                  f'{last}: {" ".join(m.group().split())}')


def check_citations(root):
    """(citations checked, complaints printed)."""
    sections = design_sections(root)
    checked = failures = 0
    for path in citing_files(root):
        with open(os.path.join(root, path), encoding='utf-8') as f:
            text = uncommented(f.read())
        checked += len(CITATION.findall(text))
        for offset, complaint in citations(text, sections):
            failures += 1
            line = text.count('\n', 0, offset) + 1
            print(f'{path}:{line}: {complaint}')
    return checked, failures


def check(root, packages, root_name, command):
    """The complaints about one command (none when it resolves)."""
    words = command.split()
    for i, word in enumerate(words):
        if word in END:
            words = words[:i]
            break
    values = {}
    for flag, value in zip(words, words[1:]):
        if not value.startswith('<'):  # `--bench <name>` is a placeholder
            values.setdefault(flag, []).append(value)
    if '--manifest-path' in values:
        manifest = os.path.join(root, values['--manifest-path'][0])
        if not os.path.isfile(manifest):
            return [f'no manifest {values["--manifest-path"][0]}']
        scope = dict([package(os.path.dirname(manifest))])
    elif '-p' in values or '--package' in values:
        names = values.get('-p', []) + values.get('--package', [])
        missing = [n for n in names if n not in packages]
        if missing:
            return [f'no package `{n}` in the workspace' for n in missing]
        scope = {n: packages[n] for n in names}
    elif '--workspace' in words:
        scope = packages
    else:
        scope = {root_name: packages[root_name]}
    return [
        f'no {table} target `{target}` in {" / ".join(sorted(scope))}'
        for flag, (table, _) in KINDS.items()
        for target in values.get(flag, [])
        if not any(target in targets[table] for targets in scope.values())
    ]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else '.'
    packages, root_name = workspace(root)
    figures = figure_names(root)
    failures = checked = 0
    for doc in DOCS:
        with open(os.path.join(root, doc)) as f:
            text = f.read()
        for offset, command in sorted(set(commands(text))):
            checked += 1
            line = text.count('\n', 0, offset) + 1
            for complaint in check(root, packages, root_name, command):
                failures += 1
                print(f'{doc}:{line}: {complaint}: {" ".join(command.split())}')
        for offset, command in sorted(set(commands(text, SCRIPT))):
            checked += 1
            script = SCRIPT.match(command).group(1)
            if not os.path.isfile(os.path.join(root, script)):
                failures += 1
                line = text.count('\n', 0, offset) + 1
                print(f'{doc}:{line}: no script {script}: {command}')
        for offset, command in sorted(set(commands(text, REPRO))):
            checked += 1
            line = text.count('\n', 0, offset) + 1
            for name in unknown_figures(figures, command):
                failures += 1
                print(f'{doc}:{line}: no figure `{name}` in {FIGURES}: '
                      f'{" ".join(command.split())}')
    cited, unresolved = check_citations(root)
    failures += unresolved
    print(f'doc_commands_check: {checked} command(s) in {len(DOCS)} '
          f'file(s) and {cited} DESIGN citation(s), {failures} unresolved')
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main())
