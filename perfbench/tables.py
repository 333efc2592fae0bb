"""Seeded group-table inputs for the ``tables`` workload.

The base data (``data/groups.jsonl``) lists, for every order 4g with g a
special genus and 4g <= 96, each group of the built-in catalog as the
left-regular permutations of a generating set: entry ``x`` of generator
``s`` is the label of ``s*x``, with the identity labelled 0.  It was
written once from the generators of ``small_groups(4g)`` at commit a64f3f6
and its digest is pinned below, so the inputs never depend on the catalog
code being measured.

For one seed, every group gets a random relabelling of its elements (the
identity stays at 0) and a random file position, and a random quarter of the
groups of each order is written as a ``perm`` file of its regular
representation, the rest as an ``order n`` table with a ``generators`` line.
The quarter is an exact count per order, so the parsing work of a pass does
not change with the seed.  This module uses only the
standard library and does not import fourg.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
GROUPS_FILE = DATA_DIR / "groups.jsonl"
GROUPS_SHA256 = "d3645134bb1f996300b0795c0a51f9a39fc68b20a0799e08ff9f946a195b9325"

# Special genera (sporadic or quadruple signatures exist) with 4g <= 96.
GENERA = (3, 5, 6, 9, 10, 12, 14, 15, 18, 20, 21, 24)
PERM_SHARE = 0.25


def load_base_groups(path: Path = GROUPS_FILE) -> dict:
    """Map order -> list of generator permutation lists, digest-checked."""
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != GROUPS_SHA256:
        raise ValueError(f"{path.name}: sha256 {digest} differs from the pinned digest")
    groups = {}
    for line in raw.decode().splitlines():
        if line.strip():
            order, gens = json.loads(line)
            groups.setdefault(order, []).append(gens)
    return groups


def regular_table(order: int, gens: list) -> list:
    """Full multiplication table from left-regular generator permutations.

    Row ``i`` of the table is the left-regular permutation of element ``i``,
    which is the composite of generator permutations reaching it from the
    identity; so ``table[i][j]`` is the label of ``i*j``.
    """
    identity = list(range(order))
    rows = {0: identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for s in gens:
            q = [s[x] for x in p]
            if q[0] not in rows:
                rows[q[0]] = q
                frontier.append(q)
    if sorted(rows) != identity:
        raise ValueError(f"generators of an order-{order} group reach {len(rows)} elements")
    return [rows[i] for i in range(order)]


def _cycles(perm: list) -> str:
    seen = [False] * len(perm)
    parts = []
    for start, image in enumerate(perm):
        if seen[start] or image == start:
            continue
        cycle = [start]
        seen[start] = True
        x = image
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = perm[x]
        parts.append("(" + " ".join(str(p + 1) for p in cycle) + ")")
    return "".join(parts)


def render_group(table: list, gens: list, as_perm: bool, rng: random.Random) -> str:
    """One group file after a seeded relabelling that fixes the identity."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    label = [0] + rest
    new = [[0] * n for _ in range(n)]
    for i in range(n):
        row = table[i]
        out = new[label[i]]
        for j in range(n):
            out[label[j]] = label[row[j]]
    gen_labels = [label[s[0]] for s in gens]
    if as_perm:
        return "".join(f"perm {_cycles(new[s])}\n" for s in gen_labels)
    lines = [f"order {n}"]
    lines.extend(" ".join(map(str, row)) for row in new)
    lines.append("generators " + " ".join(map(str, gen_labels)))
    return "\n".join(lines) + "\n"


def write_inputs(seed: int, root: Path, base: dict = None) -> dict:
    """Write one directory of group files per genus under ``root``.

    Returns ``{"dirs": {g: path}, "files": {g: count}, "sha256": digest}``;
    the digest covers every relative path and file body, so one seed gives
    the same digest on every commit.
    """
    base = load_base_groups() if base is None else base
    rng = random.Random(f"fourg-tables-{seed}")
    digest = hashlib.sha256()
    dirs, files = {}, {}
    for g in GENERA:
        order = 4 * g
        entries = base[order]
        slots = list(range(len(entries)))
        rng.shuffle(slots)
        perms = set(rng.sample(range(len(entries)), round(PERM_SHARE * len(entries))))
        gdir = root / f"g{g:02d}"
        gdir.mkdir(parents=True)
        for k, (slot, gens) in enumerate(zip(slots, entries)):
            as_perm = k in perms
            text = render_group(regular_table(order, gens), gens, as_perm, rng)
            name = f"grp{slot:03d}.{'perm' if as_perm else 'tbl'}"
            (gdir / name).write_text(text)
            digest.update(f"{gdir.name}/{name}\n".encode())
            digest.update(text.encode())
        dirs[g] = gdir
        files[g] = len(entries)
    return {"dirs": dirs, "files": files, "sha256": digest.hexdigest()}
