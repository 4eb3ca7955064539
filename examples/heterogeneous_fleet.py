"""Heterogeneous fleet sizing (extension of paper Section 8).

The paper profiles one server type; real fleets mix generations.  This
example profiles a few games on each server type in the catalog, trains a
per-type RM (the O(N)-per-type cost the paper's future work anticipates),
and shows how the same colocation's predicted frame rates differ across
hardware — the input a fleet-aware dispatcher would use.

Run:  python examples/heterogeneous_fleet.py
"""

from repro.core import (
    ColocationSpec,
    GAugurRegressor,
    InterferencePredictor,
    build_dataset,
    generate_colocations,
    measure_colocations,
)
from repro.games import REFERENCE_RESOLUTION, build_catalog
from repro.hardware import server_catalog
from repro.profiling import ContentionProfiler
from repro.simulator import run_colocation

GAMES = ["Dota2", "H1Z1", "Stardew Valley", "World of Warcraft", "Far Cry4"]
COLOCATION = ("Dota2", "H1Z1", "World of Warcraft")


def main() -> None:
    catalog = build_catalog()
    spec = ColocationSpec(
        tuple((name, REFERENCE_RESOLUTION) for name in COLOCATION)
    )

    print(f"colocation under study: {' + '.join(COLOCATION)}\n")
    header = f"{'server type':26s} " + "".join(f"{n[:14]:>16s}" for n in COLOCATION)
    print(header + f" {'RM error':>9s}")

    for name, server in server_catalog().items():
        profiler = ContentionProfiler(server=server)
        db = profiler.profile_catalog([catalog.get(n) for n in GAMES])
        campaign = generate_colocations(GAMES, sizes={2: 50, 3: 25}, seed=5)
        measured = measure_colocations(catalog, campaign, server=server)
        dataset = build_dataset(measured, db)
        rm = GAugurRegressor().fit(dataset.rm)

        # Predicted vs actual for the studied colocation on this hardware.
        predicted = InterferencePredictor(db, regressor=rm).predict_fps(spec)
        actual = run_colocation(spec.instances(catalog), server=server).fps
        error = sum(
            abs(p - a) / a for p, a in zip(predicted, actual)
        ) / len(actual)
        row = f"{name:26s} " + "".join(
            f"{p:7.0f}/{a:<7.0f}" for p, a in zip(predicted, actual)
        )
        print(row + f" {error:8.1%}")

    print("\n(columns are predicted/actual FPS per game)")


if __name__ == "__main__":
    main()
