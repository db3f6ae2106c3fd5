"""The one CSV writer behind every CLI table, and the CLI's help text."""

import argparse
import csv

import numpy as np

from markeq.cli import build_parser
from markeq.evaluate import write_csv


def test_write_csv_matches_csv_writer(tmp_path):
    floats = np.array([-0.0, 5e-324, 1e-300, 1 / 3, 1e22])
    grid = np.arange(6.0).reshape(2, 3) / 7
    blocks = [("refined", 1, np.arange(floats.size), floats),
              ("boundary_hit", np.array([[2], [3]]), np.arange(3), grid),
              ("clamped_mass", 4, "", 1e22)]
    write_csv(tmp_path / "new.csv", ["kind", "t", "node", "value"], "%s,%d,%s,%.17g", blocks)

    rows = [("refined", 1, i, x) for i, x in enumerate(floats.tolist())]
    rows += [("boundary_hit", t, i, grid[t - 2, i]) for t in (2, 3) for i in range(3)]
    rows += [("clamped_mass", 4, "", 1e22)]
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "t", "node", "value"])
        w.writerows((kind, t, i, "{:.17g}".format(x)) for kind, t, i, x in rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_every_cli_option_has_help_text():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        for action in sub._actions:
            assert action.help, f"markeq {name} {action.option_strings[0]} has no help text"
