#!/usr/bin/env python3
"""Rebuilds EXPERIMENTS.md's quoted outputs and headline numbers from out/experiments/.

Run scripts/run_all_experiments.sh first. For every binary that script
lists, the fenced block under the "(`--bin X`)" heading is replaced with
out/experiments/X.txt, and each headline row's Measured cell is read from
the output that holds its number (HEADLINE below). Prose, the Paper
column and the verdicts are kept as written.

Exits 1, writing nothing, when a listed binary has no section, no block
or no output; when a headline row has no rule or its number cannot be
found; or when a section, an output or a bench binary names an
experiment that the script does not list (only the `bench_*` harnesses,
which gate their own reports, may stay off the list).
"""
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "out" / "experiments"
MD = ROOT / "EXPERIMENTS.md"
SCRIPT = ROOT / "scripts" / "run_all_experiments.sh"
BINS = ROOT / "crates" / "bench" / "src" / "bin"


class Missing(Exception):
    """A number, table or section that regen was told to find is not there."""


def split_row(row: str) -> list[str]:
    """The cells of one markdown table row."""
    return [c.strip() for c in row.strip().strip("|").split("|")]


def table(out: str, title: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of the first "== ... ==" table whose title contains `title`."""
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("== ") and title in line:
            rows = []
            for row in lines[i + 3 :]:
                if not row.startswith("|"):
                    break
                rows.append(split_row(row))
            return split_row(lines[i + 1]), rows
    raise Missing(f"no table titled {title!r}")


def line(pattern: str, fmt: str = "{}"):
    """The groups of the first line matching `pattern`, put into `fmt`."""

    def read(out: str) -> str:
        m = re.search(pattern, out, re.M)
        if not m:
            raise Missing(f"no line matching {pattern!r}")
        return fmt.format(*m.groups())

    return read


def cell(title: str, row: str, column: str):
    """One cell of a table, by its first-column key and its header."""

    def read(out: str) -> str:
        header, rows = table(out, title)
        if column not in header:
            raise Missing(f"table {title!r} has no column {column!r}")
        for r in rows:
            if r[0] == row:
                return r[header.index(column)]
        raise Missing(f"table {title!r} has no row {row!r}")

    return read


def span(title: str, column: str, skip: tuple[str, ...] = ()):
    """The smallest and largest magnitude in a table column, as "a–b<unit>"."""

    def read(out: str) -> str:
        header, rows = table(out, title)
        if column not in header:
            raise Missing(f"table {title!r} has no column {column!r}")
        cells = [r[header.index(column)] for r in rows if r[0] not in skip]
        if not cells:
            raise Missing(f"table {title!r} has no rows in column {column!r}")
        unit = cells[0].lstrip("-0123456789.")
        values = sorted((c[: len(c) - len(unit)] for c in cells), key=lambda v: abs(float(v)))
        lo, hi = values[0], values[-1]
        if lo == hi:
            text = lo
        elif hi.startswith("-"):
            text = f"{lo} to {hi}"
        else:
            text = f"{lo}–{hi}"
        return text.replace("-", "−") + unit

    return read


# Where each headline row's Measured cell comes from, keyed by the row's
# claim: the binary whose output holds the number, and how to read it.
HEADLINE = {
    "ScalaGraph-512 vs Gunrock (mean of per-cell GTEPS speedups)": (
        "fig14",
        line(r"ScalaGraph-512 vs Gunrock *: (\S+)"),
    ),
    "ScalaGraph-512 vs GraphDynS-128": ("fig14", line(r"ScalaGraph-512 vs GraphDynS-128 *: (\S+)")),
    "ScalaGraph-512 vs GraphDynS-512": ("fig14", line(r"ScalaGraph-512 vs GraphDynS-512 *: (\S+)")),
    "ScalaGraph-128 vs GraphDynS-128": ("fig14", line(r"ScalaGraph-128 vs GraphDynS-128 *: (\S+)")),
    # The first PE count whose Crossbar column, the first after "PEs", reads route-fail.
    "Crossbar route failure threshold": ("fig8", line(r"^\| (\d+) +\| route-fail ", "{} PEs")),
    "Mesh frequency at 1,024 PEs": ("fig8", cell("Max frequency", "1024", "Mesh")),
    "ROM vs SOM NoC traffic": ("fig17", span("NoC communications", "ROM vs SOM")),
    "ROM routing latency": (
        "fig17",
        line(r"SOM ([\d.]+) \| DOM [\d.]+ \| ROM ([\d.]+)", "{} → {} cycles"),
    ),
    "Update aggregation speedup": ("fig18", span("(b)", "speedup")),
    "Degree-aware scheduling @16": ("fig19a", span("Speedup over", "16")),
    "Inter-phase pipelining (CC)": ("fig19b", span("CC cycles", "speedup")),
    "PE scaling 512→1,024 (U280)": ("fig21", cell("U280", "1024", "vs previous")),
    # The 1,024-PE row is the baseline of the doublings, not one of them.
    "PE scaling per doubling >1,024 (unlimited BW)": (
        "fig21",
        span("Unlimited", "per doubling", skip=("1024",)),
    ),
    "Energy vs Gunrock (ScalaGraph-512)": ("fig14", line(r"Gunrock / ScalaGraph-512 *: (\S+)", "{} less")),
}


def listed_bins() -> list[str]:
    m = re.search(r"^bins=\((.*?)\)", SCRIPT.read_text(), re.S | re.M)
    if not m:
        raise Missing(f"{SCRIPT.name} has no bins=(...) list")
    return m.group(1).replace("\\", " ").split()


def refresh_block(text: str, name: str, fresh: str) -> str:
    """Replaces the fenced block of the one "(`--bin name`)" section."""
    headings = list(re.finditer(rf"^#+ .*\(`--bin {name}`\)$", text, re.M))
    if len(headings) != 1:
        raise Missing(f"{len(headings)} sections headed (`--bin {name}`), expected 1")
    start = headings[0].end()
    end = re.compile(r"^#", re.M).search(text, start)
    section = text[start : end.start() if end else len(text)]
    block = re.search(r"^```\n.*?^```$", section, re.S | re.M)
    if not block:
        raise Missing(f"section (`--bin {name}`) has no fenced block")
    return text[: start + block.start()] + f"```\n{fresh}\n```" + text[start + block.end() :]


def refresh_headline(text: str, outputs: dict[str, str], errors: list[str]) -> str:
    lines = text.split("\n")
    if "## Headline summary" not in lines:
        errors.append("EXPERIMENTS.md has no '## Headline summary' section")
        return text
    start = lines.index("## Headline summary")
    seen = set()
    for i in range(start + 1, len(lines)):
        row = lines[i]
        if row.startswith("#"):
            break
        if not row.startswith("| ") or row.startswith(("| Claim", "|---")):
            continue
        cells = split_row(row)
        claim = cells[0]
        seen.add(claim)
        if claim not in HEADLINE:
            errors.append(f"headline row {claim!r} has no rule in HEADLINE")
            continue
        name, read = HEADLINE[claim]
        if name not in outputs:
            errors.append(f"headline row {claim!r} reads {name}, which has no output")
            continue
        try:
            cells[2] = read(outputs[name])
        except (Missing, ValueError) as e:
            errors.append(f"headline row {claim!r} ({name}): {e}")
            continue
        lines[i] = "| " + " | ".join(cells) + " |"
    for claim in HEADLINE.keys() - seen:
        errors.append(f"rule for {claim!r} matches no headline row")
    return "\n".join(lines)


def main() -> int:
    errors = []
    try:
        bins = listed_bins()
    except Missing as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    unlisted = lambda name: name not in bins and not name.startswith("bench_")
    for src in sorted(BINS.glob("*.rs")):
        if unlisted(src.stem):
            errors.append(f"{src.relative_to(ROOT)} is an experiment binary that {SCRIPT.name} does not run")
    for txt in sorted(OUT.glob("*.txt")):
        if txt.stem not in bins:
            errors.append(f"{txt.relative_to(ROOT)} has no binary in {SCRIPT.name}")

    text = MD.read_text()
    for name in re.findall(r"^#+ .*\(`--bin (\w+)`\)$", text, re.M):
        if unlisted(name):
            errors.append(f"EXPERIMENTS.md has a section for {name}, which {SCRIPT.name} does not run")
    outputs = {}
    for name in bins:
        path = OUT / f"{name}.txt"
        if not path.exists():
            errors.append(f"no output {path.relative_to(ROOT)}: run {SCRIPT.name} first")
            continue
        outputs[name] = path.read_text().strip()
        try:
            text = refresh_block(text, name, outputs[name])
        except Missing as e:
            errors.append(str(e))
    text = refresh_headline(text, outputs, errors)

    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        print("EXPERIMENTS.md left unchanged", file=sys.stderr)
        return 1
    MD.write_text(text)
    print(f"EXPERIMENTS.md refreshed from {len(bins)} outputs and {len(HEADLINE)} headline rules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
