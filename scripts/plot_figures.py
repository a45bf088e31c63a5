#!/usr/bin/env python3
"""Parse paper_figures output into per-figure CSV files (and plots).

Usage:
    build/bench/paper_figures > bench_output.txt 2>/dev/null
    scripts/plot_figures.py bench_output.txt --outdir figures/

Each figure's table becomes figures/<figure>.csv. If matplotlib is
available, grouped bar charts are rendered alongside as .png; without
it the script still produces the CSVs.
"""

import argparse
import os
import re
import sys


def parse_blocks(text):
    """Split concatenated bench output into (figure_id, rows) blocks."""
    blocks = []
    current_id = None
    rows = []
    for line in text.splitlines():
        m = re.match(r"#\s+((?:Figure|Table|Ablation)[^\n]*)", line)
        if m and not line.startswith("# paper") and \
           not line.startswith("# uvmsim"):
            if current_id and rows:
                blocks.append((current_id, rows))
            current_id = m.group(1).strip()
            rows = []
            continue
        if line.startswith("#") or not line.strip():
            continue
        cells = line.split()
        if len(cells) >= 2 and current_id:
            rows.append(cells)
    if current_id and rows:
        blocks.append((current_id, rows))
    return blocks


def slug(figure_id):
    return re.sub(r"[^a-z0-9]+", "_", figure_id.lower()).strip("_")


def write_csv(outdir, figure_id, rows):
    path = os.path.join(outdir, slug(figure_id) + ".csv")
    with open(path, "w") as f:
        for row in rows:
            f.write(",".join(row) + "\n")
    return path


def numeric(cell):
    cell = cell.rstrip("x%")
    try:
        return float(cell)
    except ValueError:
        return None


def try_plot(outdir, figure_id, rows):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False

    header, data = rows[0], rows[1:]
    series = header[1:]
    labels = [r[0] for r in data if r[0] not in ("geomean", "geomean_x")]
    columns = []
    for i in range(1, len(header)):
        col = [numeric(r[i]) if i < len(r) else None
               for r in data if r[0] not in ("geomean", "geomean_x")]
        columns.append(col)
    if not labels or all(v is None for col in columns for v in col):
        return False

    width = 0.8 / max(1, len(series))
    fig, ax = plt.subplots(figsize=(10, 4))
    for i, (name, col) in enumerate(zip(series, columns)):
        xs = [j + i * width for j in range(len(labels))]
        ys = [v if v is not None else 0.0 for v in col]
        ax.bar(xs, ys, width=width, label=name)
    ax.set_xticks([j + 0.4 for j in range(len(labels))])
    ax.set_xticklabels(labels, rotation=30, ha="right")
    ax.set_title(figure_id)
    ax.set_yscale("log")
    ax.legend(fontsize=7)
    fig.tight_layout()
    fig.savefig(os.path.join(outdir, slug(figure_id) + ".png"), dpi=120)
    plt.close(fig)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("input", help="concatenated bench output")
    parser.add_argument("--outdir", default="figures")
    args = parser.parse_args()

    with open(args.input) as f:
        text = f.read()
    os.makedirs(args.outdir, exist_ok=True)

    blocks = parse_blocks(text)
    if not blocks:
        print("no figure tables found", file=sys.stderr)
        return 1
    plotted = 0
    for figure_id, rows in blocks:
        path = write_csv(args.outdir, figure_id, rows)
        if try_plot(args.outdir, figure_id, rows):
            plotted += 1
        print(f"wrote {path}")
    print(f"{len(blocks)} tables, {plotted} plots -> {args.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
