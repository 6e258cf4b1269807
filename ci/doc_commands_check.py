#!/usr/bin/env python3
"""Checks that the cargo commands the docs quote name things that exist.

    doc_commands_check.py [ROOT]

Reads every `cargo run|bench|test ...` inside a fenced block or an inline
code span of the files in DOCS and resolves its `-p PKG` (or
`--manifest-path`, or neither: the root package) and each `--bin`,
`--bench`, `--example` or `--test` target against the manifests and the
directories cargo auto-discovers targets from. Exits 1 listing every
command whose package or target is missing. Standard library only.
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
# flag -> (manifest table, directory cargo auto-discovers the kind from)
KINDS = {
    '--bin': ('bin', 'src/bin'),
    '--bench': ('bench', 'benches'),
    '--example': ('example', 'examples'),
    '--test': ('test', 'tests'),
}
CARGO = re.compile(r'\bcargo\s+(?:run|bench|test)\b[^`]*')
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


def commands(text):
    """(offset, command) of every quoted cargo command in `text`."""
    # A fenced line ending in a backslash continues on the next; blanking
    # the pair joins them and keeps every offset where it was.
    text = text.replace('\\\n', '  ')
    fenced = False
    offset = 0
    for line in text.splitlines(keepends=True):
        if line.lstrip().startswith('```'):
            fenced = not fenced
        elif fenced:
            for m in CARGO.finditer(line):
                yield offset + m.start(), m.group()
        offset += len(line)
    prose = re.sub(r'^```.*?^```', lambda m: ' ' * len(m.group()), text,
                   flags=re.S | re.M)
    for span in re.finditer(r'`([^`]+)`', prose):
        for m in CARGO.finditer(span.group(1)):
            yield span.start(1) + m.start(), m.group()


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
    print(f'doc_commands_check: {checked} cargo command(s) in {len(DOCS)} '
          f'file(s), {failures} unresolved')
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main())
