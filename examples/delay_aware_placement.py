"""Delay-aware colocation screening (extension of paper Section 7).

Frame rate is not the whole experience: players feel the *processing
delay* (frame time + capture/encode).  This example trains the delay model
alongside the RM and screens candidate colocations against both a 60 FPS
floor and a 40 ms processing-delay ceiling.

Run:  python examples/delay_aware_placement.py
"""

import itertools

from repro.core import (
    ColocationSpec,
    GAugurDelayRegressor,
    GAugurRegressor,
    InterferencePredictor,
    build_dataset,
    build_delay_dataset,
    generate_colocations,
    measure_colocations,
    measure_delay_colocations,
)
from repro.games import REFERENCE_RESOLUTION, build_catalog
from repro.profiling import ContentionProfiler

GAMES = ["Dota2", "H1Z1", "Team Fortress 2", "Stardew Valley",
         "World of Warcraft", "Northgard"]
QOS_FPS = 60.0
DELAY_CEILING_MS = 40.0


def main() -> None:
    catalog = build_catalog()
    print(f"Profiling {len(GAMES)} games...")
    db = ContentionProfiler().profile_catalog([catalog.get(n) for n in GAMES])

    print("Measuring the training campaign (FPS and processing delay)...")
    colocations = generate_colocations(GAMES, sizes={2: 60, 3: 30}, seed=11)
    fps_measured = measure_colocations(catalog, colocations)
    delay_measured = measure_delay_colocations(catalog, colocations)

    rm = GAugurRegressor().fit(build_dataset(fps_measured, db).rm)
    predictor = InterferencePredictor(db, regressor=rm)
    delay_model = GAugurDelayRegressor().fit(
        build_delay_dataset(delay_measured, db)
    )

    print(f"\nScreening pairs: FPS >= {QOS_FPS:.0f} and delay <= {DELAY_CEILING_MS:.0f} ms")
    print(f"  {'pair':42s} {'min FPS':>8s} {'max delay':>10s}  verdict")
    for a, b in itertools.combinations(GAMES, 2):
        spec = ColocationSpec(
            ((a, REFERENCE_RESOLUTION), (b, REFERENCE_RESOLUTION))
        )
        fps = predictor.predict_fps(spec)
        delays = delay_model.predict_delay_ms(db, spec)
        ok = min(fps) >= QOS_FPS and max(delays) <= DELAY_CEILING_MS
        print(
            f"  {a + ' + ' + b:42s} {min(fps):8.1f} {max(delays):9.1f}ms  "
            f"{'OK' if ok else 'reject'}"
        )


if __name__ == "__main__":
    main()
