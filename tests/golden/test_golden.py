"""Golden regression suite: snapshot engine stats and CLI surfaces.

These snapshots pin the externally visible shape of the simulation
results — stat dictionaries and command-line output — so an accidental
change to a counter, a key name, or a report line shows up as a crisp
fixture diff rather than a silent drift.
"""

import json
import pathlib
import re

from repro.cli import main
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.dataflow.engine import RunStats
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import simulate_kernel

from .conftest import as_json


def small_run():
    grid = Grid(nx=6, ny=9, nz=5)
    fields = random_wind(grid, seed=17, magnitude=2.0)
    return simulate_kernel(KernelConfig(grid=grid, chunk_width=4), fields)


class TestStatsSnapshots:
    def test_aggregate_stats_exact(self, golden):
        stats = small_run().aggregate_stats()
        golden("aggregate_stats_exact.json", as_json(stats.to_dict()))

    def test_runstats_merge(self, golden):
        merged = RunStats.merge(small_run().chunk_stats)
        golden("runstats_merge.json", as_json(merged.to_dict()))


def normalise_wall(text: str) -> str:
    return re.sub(r"wall:\s+[\d.]+ s", "wall:     <elapsed> s", text)


class TestCliSnapshots:
    def test_simulate_text(self, golden, capsys):
        assert main(["simulate", "--nx", "6", "--ny", "9", "--nz", "5",
                     "--chunk-width", "4"]) == 0
        golden("cli_simulate.txt", normalise_wall(capsys.readouterr().out))

    def test_lint_json(self, golden, capsys):
        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        golden("cli_lint.json", as_json(payload))

    def test_analyze_json(self, golden, capsys):
        # The proof objects for the paper's U280 deployment, engine
        # cross-checked: any drift in a proved number is a real change
        # to the verifier's claims.
        spec = (pathlib.Path(__file__).resolve().parents[2] / "examples"
                / "graphs" / "advection_u280.json")
        assert main(["analyze", "--json", "--check", str(spec)]) == 0
        payload = json.loads(capsys.readouterr().out)
        golden("cli_analyze.json", as_json(payload))

    def test_metrics_json(self, golden, capsys):
        assert main(["metrics", "--nx", "6", "--ny", "9", "--nz", "5",
                     "--chunk-width", "4", "--clock-mhz", "300",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        golden("cli_metrics.json", as_json(payload))
