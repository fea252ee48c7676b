"""``tools/layer_cost.py`` runs end to end at tiny counts.

The tool runs in its own interpreter, as it sets the path and the BLAS
threads for the whole process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SMOKE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("layer_cost", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
print(json.dumps(tool.layer_costs(calls=3, descents=1, repeats=1)))
"""


def test_layer_cost_prints_every_figure():
    done = subprocess.run(
        [sys.executable, "-c", SMOKE, str(ROOT / "tools" / "layer_cost.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    assert set(rows) == {
        "portfolio.cost.us",
        "keys.shake.us_d50",
        "keys.shake.us_d6",
        "budget.charge.us_d50",
        "budget.charge_block.us_row_d50",
        "budget.charge_block.us_row_tdtsp50_shrink",
        "budget.charge_block.us_row_tdtsp50_random",
        "budget.charge_block.us_row_tdtsp6_target",
        "budget.charge_block.us_row_portfolio225",
        "nelder_mead.ask_us_d20",
        "nelder_mead.ask_us_d50",
        "nelder_mead.ask_us_tdtsp50",
        "nelder_mead.decodes_d20",
        "nelder_mead.decodes_d50",
        "nelder_mead.decodes_tdtsp50",
        "tdtsp.cost.us_n50",
        "tdtsp.cost.us_n50_tenths",
        "tdtsp.cost.us_n6",
        "tdtsp.decode.us_n50",
        "tdtsp.oracle.ms_n6",
        "tdtsp.oracle.ms_n8",
        "host_factor",
    }
    assert all(value > 0 for value in rows.values())
    # One descent per row, stopped at the latest by its 50 * d cap.
    assert 20 < rows["nelder_mead.decodes_d20"] <= 1000
    assert 50 < rows["nelder_mead.decodes_d50"] <= 2500
    assert 50 < rows["nelder_mead.decodes_tdtsp50"] <= 2500
