import numpy as np

import isobench.verify
from isobench import (
    Hypergraph,
    enumerate_hypergraphs,
    identity_objective,
    power_set_hypergraph,
    singleton_hypergraph,
    tashma_injection_maximal,
    zero_based_identity,
)
from conftest import check_rows, walk_checks
from isobench.counting import _single
from isobench.verify import verify_grid


def instance_checks(H, M, f):
    """The checks on one instance, passing or not: a batch of one."""
    return check_rows((H,), [(M, f)])[0][0]


class TestInstanceChecks:
    def test_all_hold_on_triangle(self):
        H = Hypergraph.from_edges(3, [[1, 2], [1, 3], [2, 3]])
        results = instance_checks(H, 2, identity_objective(2))
        assert results and all(r.holds for r in results)
        names = {r.name for r in results}
        assert "total_ge_ta_shma" in names
        assert "witnessA_charge_bound" in names
        assert "m2_special_ge_n" in names

    def test_proven_classes_are_tagged_theorem(self):
        H = singleton_hypergraph(3)  # linear, so conjecture 2 is proven here
        kinds = {r.name: r.kind for r in instance_checks(H, 3, identity_objective(3))}
        assert kinds["layer1_ge_conjecture2"] == "theorem"

    def test_open_instances_are_tagged_conjecture(self):
        # complement singletons on 4 vertices: not linear, not 1-degenerate
        H = Hypergraph.from_edges(4, [[2, 3, 4], [1, 3, 4], [1, 2, 4], [1, 2, 3]])
        kinds = {r.name: r.kind for r in instance_checks(H, 3, identity_objective(3))}
        assert kinds["layer1_ge_conjecture2"] == "conjecture"

    def test_zero_allowed_gets_only_the_zero_bound(self):
        results = instance_checks(power_set_hypergraph(2), 2, zero_based_identity(2))
        assert [r.name for r in results] == ["total_ge_zero_weight_bound"]
        assert results[0].holds

    def test_single_edge_m2_formula_check_present(self):
        H = Hypergraph.from_edges(3, [[1, 2]])
        names = {r.name for r in instance_checks(H, 2, identity_objective(2))}
        assert "m2_single_edge_count" in names


    def test_broken_injection_is_a_failed_theorem_check(self, monkeypatch):
        """A collision or a non-isolating image fails the injection checks,
        which carry the instance; nothing raises."""
        H, f = singleton_hypergraph(2), identity_objective(3)
        mapping = tashma_injection_maximal(H, 3, f).mapping
        assert [img for _, img in mapping] == [(1, 2), (1, 3), (3, 1), (2, 3)]
        members, tables = _single(H, 3, f)
        domain, edges, _, _ = isobench.verify._injection(members, 3, tables)
        # a collision; an image that does not isolate its edge, as the
        # injection reports it
        images = [img for _, img in mapping]
        broken = {
            "injection_image_size": ([[(1, 2)] * 4], [[False] * 4]),
            "injection_images_isolating": ([[(2, 2), *images[1:]]], [[True, False, False, False]]),
        }
        for name, (images, bad) in broken.items():
            report = (domain, edges, np.array(images), np.array(bad))
            monkeypatch.setattr(isobench.verify, "_injection", lambda *a, report=report: report)
            failed = walk_checks((H,), [(3, f)])[1]
            assert [(r.name, r.kind) for r in failed] == [(name, "theorem")]
            assert failed[0].instance["hypergraph"] == H.to_json_dict()


class TestSummaries:
    def test_small_grid_clean(self):
        summary = verify_grid([enumerate_hypergraphs(n) for n in (1, 2)], [2])
        assert summary.ok
        assert summary.instances == (2 + 5) * 3
        assert summary.checks_run > 0

    def test_inclusion_freeness_is_read_off_the_hypergraph(self, monkeypatch):
        """A walk built inclusion-free is not scanned again; a hypergraph
        built without that check is, and its nested edges get only the
        universal bound."""
        walk = list(enumerate_hypergraphs(3))
        calls = []
        scan = isobench.verify.is_inclusion_free

        def spy(H):
            calls.append(H)
            return scan(H)

        monkeypatch.setattr(isobench.verify, "is_inclusion_free", spy)
        assert verify_grid([walk], [2, 3]).ok
        assert calls == []
        nested = Hypergraph.from_edges(2, [[1], [1, 2]], require_inclusion_free=False)
        summary = verify_grid([[nested]], [2])
        assert (summary.ok, summary.checks_run) == (True, 3)  # one check per preset
        assert calls == [nested]  # once, for the walk's shape
        results = instance_checks(nested, 2, identity_objective(2))
        assert [r.name for r in results] == ["total_ge_zero_weight_bound"]
