"""A10 (§5.3): designing for total cost of ownership.

"Two potential solutions for increased performance are to either waste
energy and increase performance with diminishing returns or pay for
more hardware and parallelize, keeping the same energy efficiency.
Over time, we expect that the latter solution will prevail since the
energy costs will make up a larger fraction of TCO."

We take the Figure 1 machine's two ends — the 204-disk "waste energy"
configuration and a pair of 66-disk "efficient, parallelized" nodes —
and sweep the electricity price.  Cheap power favors the single big
box; past a crossover price the scale-out option wins, exactly the
§5.3 prediction.
"""

from conftest import emit, run_once, run_spec

from repro.core.metrics import TcoModel
from repro.runner import ExperimentSpec

PRICES = [0.02, 0.05, 0.10, 0.20, 0.40, 0.80, 1.60]
CHASSIS_DOLLARS = 90_000.0     # 8-socket DL785-class tray
DISK_DOLLARS = 350.0           # one 15K SCSI spindle + tray share


def measure():
    spec = ExperimentSpec("fig1", knobs={"disks": [66, 204]},
                          profile="dl785")
    eff, fast = run_spec(spec).reports
    options = {
        "1x 204-disk (waste energy)": {
            "watts": fast.average_power_watts,
            "rate": fast.performance,
            "hardware": CHASSIS_DOLLARS + 204 * DISK_DOLLARS,
        },
        "2x 66-disk (parallelize)": {
            "watts": 2 * eff.average_power_watts,
            "rate": 2 * eff.performance,
            "hardware": 2 * (CHASSIS_DOLLARS + 66 * DISK_DOLLARS),
        },
    }
    rows = []
    for price in PRICES:
        costs = {}
        for name, opt in options.items():
            tco = TcoModel(hardware_cost_dollars=opt["hardware"],
                           electricity_dollars_per_kwh=price)
            costs[name] = tco.cost_per_unit_work(opt["watts"], opt["rate"])
        winner = min(costs, key=costs.get)
        rows.append((price, *costs.values(), winner))
    return options, rows


def test_scale_out_wins_as_energy_prices_rise(benchmark):
    options, rows = run_once(benchmark, measure)
    names = list(options)
    emit(benchmark,
         "A10: cost per query vs electricity price (§5.3)",
         ["$/kWh", f"{names[0]} ($/q)", f"{names[1]} ($/q)", "winner"],
         [(p, round(a, 4), round(b, 4), w) for p, a, b, w in rows])
    winners = [w for *_rest, w in rows]
    # cheap power: the single hot box wins on hardware cost
    assert winners[0] == names[0]
    # expensive power: parallelizing at the efficient point wins
    assert winners[-1] == names[1]
    # the crossover is monotone: once scale-out wins, it keeps winning
    flipped = False
    for w in winners:
        if w == names[1]:
            flipped = True
        else:
            assert not flipped, "winner flipped back after crossover"
    # sanity: the scale-out option really does deliver more performance
    assert options[names[1]]["rate"] > options[names[0]]["rate"]
