"""Predictor outages and a slow predictor against the decision chain.

A serving dispatcher must keep placing sessions when its interference
model misbehaves.  The decision engine handles that one decision at a
time: a primary policy that raises is counted (``policy_errors``) and
the same arrival falls through to the next step of the chain
(``cm-feasible`` -> ``worst-fit`` -> a dedicated server).  This script
measures what that costs.  It replays the first 4,000 sessions of the
long-tail trace (20 games x 3 resolutions, Poisson arrivals at 20 per
minute, exponential durations with a 10-minute mean, seed 0) through
``cm-feasible`` with a 4096-entry prediction cache.  A scripted
classifier either raises for a window of arrivals (an outage of the
model server) or sleeps on every call (a slow model server).

For each scenario it prints the servers opened, the peak fleet size,
server-minutes (per server, first arrival to last departure), the
fallback count and the drain's wall time.

Run:  PYTHONPATH=src python examples/predictor_outage.py
(the first run trains the small lab, about 30 s; later runs reuse the
disk cache in ``.repro_cache``, or ``REPRO_CACHE_DIR``.)
"""

import time

from repro.core.predictor import InterferencePredictor
from repro.experiments.lab import Lab, LabConfig
from repro.placement import DecisionEngine, PredictionCache, build_policy
from repro.serving import RequestBroker, TraceConfig, generate_trace

QOS = 60.0
N_SESSIONS = 4000

#: (label, arrival indices whose classifier calls raise, seconds slept
#: per classifier call)
SCENARIOS = (
    ("healthy", range(0), 0.0),
    ("raises on arrivals 1000-1100", range(1000, 1100), 0.0),
    ("raises on arrivals 1000-1500", range(1000, 1500), 0.0),
    ("raises on arrivals 500-2500", range(500, 2500), 0.0),
    ("2 ms per predictor call", range(0), 0.002),
)


class ScriptedClassifier:
    """A classifier that raises for a window of arrivals, or sleeps.

    The driver sets :attr:`arrival` before each arrival; everything but
    the model call delegates to the wrapped classifier.
    """

    def __init__(self, inner, outage: range, delay_s: float):
        self.inner = inner
        self.outage = outage
        self.delay_s = delay_s
        self.arrival = -1

    def predict_from_features(self, X):
        if self.arrival in self.outage:
            raise RuntimeError(f"model server down at arrival {self.arrival}")
        if self.delay_s:
            time.sleep(self.delay_s)
        return self.inner.predict_from_features(X)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def server_minutes(trace, placements) -> float:
    """Sum over servers of (last departure - first arrival), in minutes."""
    spans: dict[int, tuple[float, float]] = {}
    for record in placements:
        session = trace[record.index]
        start, end = session.arrival, session.arrival + session.duration
        first, last = spans.get(record.server_id, (start, end))
        spans[record.server_id] = (min(first, start), max(last, end))
    return sum(last - first for first, last in spans.values())


def replay(lab: Lab, trace, outage: range, delay_s: float, **engine_options) -> dict:
    """Drain ``trace`` through a fresh stack; the scenario's numbers."""
    classifier = ScriptedClassifier(lab.cm_model, outage, delay_s)
    predictor = InterferencePredictor(
        lab.db, classifier=classifier, regressor=lab.rm_model
    )
    policy, fallback = build_policy(
        "cm-feasible", predictor=predictor, qos=QOS, cache=PredictionCache(4096)
    )
    broker = RequestBroker(
        DecisionEngine(policy, fallback=fallback, **engine_options)
    )
    broker.start()
    began = time.perf_counter()
    for index, session in enumerate(trace):
        classifier.arrival = index
        broker.submit(session, index)
    wall = time.perf_counter() - began
    report = broker.finish()
    return {
        "servers_opened": report.servers_opened,
        "peak_servers": report.peak_servers,
        "server_minutes": server_minutes(trace, report.placements),
        "fallbacks": report.telemetry["counters"].get("fallbacks", 0),
        "wall_s": wall,
    }


def main() -> None:
    lab = Lab(LabConfig.small())
    trace = generate_trace(
        lab.names,
        TraceConfig(
            n_requests=N_SESSIONS,
            arrival_rate=20.0,
            mean_duration=10.0,
            mixed_resolutions=True,
            seed=0,
        ),
    )
    print("| scenario | servers_opened | peak_servers | server-minutes "
          "| fallbacks | drain wall s |")
    print("|---|---|---|---|---|---|")
    for label, outage, delay_s in SCENARIOS:
        row = replay(lab, trace, outage, delay_s)
        print(
            f"| {label} | {row['servers_opened']:,} | {row['peak_servers']} "
            f"| {row['server_minutes']:,.0f} | {row['fallbacks']:,} "
            f"| {row['wall_s']:.1f} |"
        )


if __name__ == "__main__":
    main()
