"""Property-based tests for packing and assignment conservation laws."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import VBPJudge
from repro.core.training import ColocationSpec
from repro.games.resolution import Resolution
from repro.placement.assignment import assign_max_fps, assign_worst_fit
from repro.scheduling import GameRequest, pack_requests

R = Resolution(1920, 1080)
RESOLUTIONS = [R, Resolution(1280, 720)]
GAMES = ["a", "b", "c", "d", "e"]

request_counts = st.dictionaries(
    st.sampled_from(GAMES), st.integers(0, 12), min_size=1, max_size=5
)
feasible_sets = st.lists(
    st.lists(st.sampled_from(GAMES), min_size=2, max_size=4, unique=True),
    max_size=8,
)


class _FlatPredictor:
    """Toy predictor: FPS = 100 / colocation size for every member."""

    def predict_fps(self, spec):
        return np.full(spec.size, 100.0 / spec.size)


class _HalvingPredictor:
    """Toy predictor: each co-runner halves everyone's FPS.

    Totals are 100, 100, 75, 50 for sizes 1-4, so joining a server of
    size 2 or of size 3 gains exactly the same (-25).
    """

    def predict_fps(self, spec):
        return np.full(spec.size, 100.0 / 2 ** (spec.size - 1))


def _per_server_greedy(requests, n_servers, score, max_colocation=4):
    """Reference assignment: score every server alone, lowest id wins a tie."""
    servers = [()] * n_servers
    for request in requests:
        entry = (request.game, request.resolution)
        best, best_score = None, None
        for server_id, signature in enumerate(servers):
            if len(signature) >= max_colocation:
                continue
            value = score(signature, entry)
            if best is None or value > best_score:
                best, best_score = server_id, value
        servers[best] = tuple(sorted(servers[best] + (entry,)))
    return servers


@st.composite
def _fleets(draw, names):
    """``(requests, n_servers)``; half are tight fleets, 4 games a server."""
    n_servers = draw(st.integers(1, 6))
    tight = draw(st.booleans())
    n_requests = 4 * n_servers if tight else draw(st.integers(1, 4 * n_servers))
    picks = st.tuples(st.sampled_from(names), st.sampled_from(RESOLUTIONS))
    entries = draw(st.lists(picks, min_size=n_requests, max_size=n_requests))
    return [GameRequest(name, res) for name, res in entries], n_servers


class TestPackingProperties:
    @given(request_counts, feasible_sets)
    @settings(max_examples=60, deadline=None)
    def test_every_request_served_exactly_once(self, counts, feasible_names):
        requests = [
            GameRequest(name, R) for name, k in counts.items() for _ in range(k)
        ]
        if not requests:
            return
        feasible = [
            ColocationSpec(tuple((n, R) for n in names))
            for names in feasible_names
        ]
        result = pack_requests(requests, feasible)
        served = Counter(
            (name, res) for spec in result.servers for name, res in spec.entries
        )
        wanted = Counter((r.game, r.resolution) for r in requests)
        assert served == wanted

    @given(request_counts, feasible_sets)
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_dedicated(self, counts, feasible_names):
        requests = [
            GameRequest(name, R) for name, k in counts.items() for _ in range(k)
        ]
        if not requests:
            return
        feasible = [
            ColocationSpec(tuple((n, R) for n in names))
            for names in feasible_names
        ]
        result = pack_requests(requests, feasible)
        assert result.n_servers <= len(requests)

    @given(request_counts)
    @settings(max_examples=30, deadline=None)
    def test_no_feasible_colocations_is_dedicated(self, counts):
        requests = [
            GameRequest(name, R) for name, k in counts.items() for _ in range(k)
        ]
        if not requests:
            return
        result = pack_requests(requests, [])
        assert result.n_servers == len(requests)


class TestAssignmentProperties:
    @given(
        st.lists(st.sampled_from(GAMES), min_size=1, max_size=16),
        st.integers(5, 12),
    )
    @settings(max_examples=30, deadline=None)
    def test_all_requests_placed_within_capacity(self, games, n_servers):
        requests = [GameRequest(g, R) for g in games]
        if len(requests) > n_servers * 4:
            return
        result = assign_max_fps(requests, _FlatPredictor(), n_servers)
        assert result.n_requests == len(requests)
        assert all(len(sig) <= 4 for sig in result.servers)
        placed = Counter(entry for sig in result.servers for entry in sig)
        wanted = Counter((r.game, r.resolution) for r in requests)
        assert placed == wanted

    @given(st.lists(st.sampled_from(GAMES), min_size=2, max_size=10))
    @settings(max_examples=20, deadline=None)
    def test_flat_predictor_spreads(self, games):
        # With FPS = 100/size, spreading maximizes the total: every request
        # should land on its own server when capacity allows.
        requests = [GameRequest(g, R) for g in games]
        result = assign_max_fps(requests, _FlatPredictor(), n_servers=len(games))
        assert all(len(sig) == 1 for sig in result.occupied())


class TestAssignmentTieRule:
    """Both assigners equal a per-server greedy whose exact ties go to the
    lowest server id — the serving policies' tie rule."""

    @given(_fleets(GAMES), st.sampled_from([_FlatPredictor(), _HalvingPredictor()]))
    @settings(max_examples=150, deadline=None)
    def test_max_fps_matches_per_server_greedy(self, fleet, predictor):
        requests, n_servers = fleet

        def total(signature):
            if not signature:
                return 0.0
            return float(np.sum(predictor.predict_fps(ColocationSpec(signature))))

        def gain(signature, entry):
            return total(tuple(sorted(signature + (entry,)))) - total(signature)

        result = assign_max_fps(requests, predictor, n_servers)
        assert result.servers == _per_server_greedy(requests, n_servers, gain)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_worst_fit_matches_per_server_greedy(self, minilab, data):
        requests, n_servers = data.draw(_fleets(minilab.names[:5]))
        vbp = VBPJudge(minilab.db)

        def fit_then_slack(signature, entry):
            spec = ColocationSpec(signature) if signature else None
            return vbp.fits_after_adding(spec, *entry), vbp.remaining_capacity(spec)

        result = assign_worst_fit(requests, vbp, n_servers)
        assert result.servers == _per_server_greedy(
            requests, n_servers, fit_then_slack
        )
