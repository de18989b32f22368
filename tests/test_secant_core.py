import hashlib
import io
import json
from collections import Counter
from fractions import Fraction
from functools import partial
from math import comb

import pytest

from secantinv import (
    DomainError,
    GeneratorDegreeUnknown,
    HilbertSeries,
    InternalMismatch,
    LineBundleClass,
    QPolynomial,
    SecantInstance,
    StratumOutOfRange,
    binomial,
    binomial_poly,
    canonical_h0,
    canonical_twist_table,
    coh_canonical_twist,
    coh_descent_line,
    coh_determinant_line,
    coh_sym_secant_sheaf,
    coh_wedge_secant_sheaf,
    cone_over_secant,
    finite_difference_numerator,
    generator_count,
    hilbert_function,
    hilbert_polynomial,
    hilbert_series,
    line_bundle_table,
    multiplicity_along_stratum,
    node_values,
    sym_secant_table,
    tangent_cone_at,
    variety_degree,
    wedge_secant_table,
)

from oracles import (
    genus0_generators,
    genus0_hilbert_function,
    hypersurface_chi,
    order1_chi,
    order1_degree,
)


@pytest.fixture
def cold_engine():
    """Empty the chi and node-table caches, and with the node tables every
    series kept in them, so that the test watches a build."""
    import secantinv.secant_core as core

    core._chi.cache_clear()
    core._node_table.cache_clear()


def full_depth_node_table(genus, degree, order):
    """Reference node table: every row extended by forward differences all
    the way down to twist -k, as the engine did before it stopped each row at
    the lowest twist a later row reads."""
    g, d, k = genus, degree, order
    rows = []
    for j in range(k + 1):
        row = [0] * (k + j + 2)
        row[k] = 1 - binomial(g + j, j + 1)
        for twist in range(1, j + 2):
            row[twist + k] = binomial(d - g + twist, twist)
        for twist in range(-j, 0):
            row[twist + k] = -sum((-1) ** i * binomial(g, i) * rows[j - i][twist + k]
                                  for i in range(1, min(g, j) + 1))
        steps = [(-1) ** m * binomial(2 * j + 2, m) for m in range(1, 2 * j + 3)]
        for index in range(k - j - 1, -1, -1):
            row[index] = -sum(w * row[index + m] for m, w in enumerate(steps, 1))
        rows.append(row)
    return tuple(rows[k])


def horner_route_numerator(inst):
    """Reference series numerator: the Hilbert function evaluated from chi
    at twists 0..2k+4 and differenced, as the engine did before it read the
    numerator from the node values."""
    return finite_difference_numerator(partial(hilbert_function, inst), inst.krull_dim,
                                       inst.krull_dim + 2)


def valid_grid(max_genus, max_order, degree_span):
    for g in range(max_genus + 1):
        for k in range(max_order + 1):
            lo = 2 * g + 2 * k + 1
            for d in range(lo, lo + degree_span):
                yield SecantInstance(g, d, k)


class TestSecantInstance:
    def test_derived_quantities(self):
        inst = SecantInstance(2, 9, 1)
        assert inst.ambient_dim == 7
        assert inst.variety_dim == 3
        assert inst.krull_dim == 4

    def test_domain_gate_message(self):
        with pytest.raises(DomainError, match=r"degree 2 violates d >= 2g\+2k\+1 = 3"):
            SecantInstance(0, 2, 1)

    def test_boundary_is_allowed(self):
        SecantInstance(0, 3, 1)
        SecantInstance(3, 11, 2)

    def test_negative_parameters_rejected(self):
        with pytest.raises(DomainError):
            SecantInstance(-1, 5, 0)
        with pytest.raises(DomainError):
            SecantInstance(0, 5, -1)

    def test_order_admission_limit(self):
        SecantInstance(0, 1000, 200)
        with pytest.raises(DomainError, match=r"order 201 exceeds the maximum order 200"):
            SecantInstance(0, 1000, 201)

    def test_json_round_trip(self):
        inst = SecantInstance(1, 7, 2)
        assert SecantInstance.from_json_dict(inst.to_json_dict()) == inst


# more digits than Python prints, and the most it prints
UNPRINTABLE = 10**4300
LONGEST = 10**4300 - 1
LONGEST_BUNDLE = 10**4000 - 1
NONSPECIAL = LineBundleClass.nonspecial(2, 9)


class TestUnprintableValues:
    """A value that an admission check would print, but that has more digits
    than Python prints, is refused by name.  Each case is one caller of the
    check, with the value past its limit or below its sign check."""

    @pytest.mark.parametrize("label, call", [
        ("genus", lambda v: SecantInstance(v, 1, 0)),
        ("order", lambda v: SecantInstance(0, 3, v)),
        ("degree", lambda v: SecantInstance(0, v, 0)),
        ("twist", lambda v: hilbert_function(SecantInstance(0, 3, 1), v)),
        ("twist", lambda v: coh_canonical_twist(SecantInstance(1, 9, 1), v, 0)),
        ("genus", lambda v: LineBundleClass(v, 0, 1, 0)),
        ("genus", lambda v: LineBundleClass.from_degree(v, 5)),
        ("points", lambda v: coh_determinant_line(v, NONSPECIAL, 0)),
        ("points", lambda v: coh_descent_line(v, NONSPECIAL, 0)),
        ("points", lambda v: coh_wedge_secant_sheaf(v, 1, NONSPECIAL, NONSPECIAL, 0)),
        ("vertex_count", lambda v: cone_over_secant(SecantInstance(0, 4, 1), v)),
        ("twist", lambda v: coh_sym_secant_sheaf(SecantInstance(0, 3, 1), v, 0)),
        ("points", lambda v: line_bundle_table("N", v, NONSPECIAL)),
        ("twist", lambda v: wedge_secant_table(3, v, NONSPECIAL, NONSPECIAL)),
        ("twist", lambda v: coh_wedge_secant_sheaf(3, v, NONSPECIAL, NONSPECIAL, 0)),
        ("cohomological index",
         lambda v: coh_wedge_secant_sheaf(3, 1, NONSPECIAL, NONSPECIAL, v)),
        ("degree", lambda v: LineBundleClass.nonspecial(2, v)),
        ("genus", lambda v: LineBundleClass.nonspecial(v, 1)),
        ("stratum", lambda v: tangent_cone_at(SecantInstance(0, 3, 1), v)),
        ("stratum", lambda v: multiplicity_along_stratum(SecantInstance(0, 3, 1), v)),
        ("twist", lambda v: node_values(SecantInstance(0, 3, 1))[v]),
    ], ids=["instance-genus", "instance-order", "instance-degree", "hilbert-function",
            "canonical-twist", "bundle-genus", "from-degree-genus", "determinant-points",
            "descent-points", "wedge-points", "cone-vertex-count", "sym-twist", "line-points",
            "wedge-table-twist", "wedge-twist", "wedge-index", "nonspecial-degree",
            "nonspecial-genus", "tangent-stratum", "multiplicity-stratum", "node-twist"])
    @pytest.mark.parametrize("sign", (1, -1), ids=("past-limit", "below-sign-check"))
    def test_refused_by_name(self, label, call, sign):
        with pytest.raises(DomainError) as caught:
            call(sign * UNPRINTABLE)
        assert str(caught.value) == f"{label} has more than 4000 digits"

    @pytest.mark.parametrize("coefficients", [
        (UNPRINTABLE,), (1, -UNPRINTABLE), (1, Fraction(1, UNPRINTABLE)),
    ], ids=["constant-term", "negative", "denominator"])
    def test_series_refuses_a_long_numerator_coefficient(self, coefficients):
        # each would fail a check that prints it; 10**4300 has 4,301 digits
        with pytest.raises(DomainError) as caught:
            HilbertSeries(QPolynomial(coefficients), 4)
        assert str(caught.value) == "series numerator coefficient has more than 4000 digits"

    def test_series_refuses_a_long_negative_krull_dim(self):
        # a long positive krull_dim is admitted: no check prints it
        with pytest.raises(DomainError, match="^krull_dim has more than 4000 digits$"):
            HilbertSeries(QPolynomial.constant(1), -UNPRINTABLE)

    @pytest.mark.parametrize("call", [
        lambda: sym_secant_table(SecantInstance(0, 3, 1), UNPRINTABLE),
        lambda: canonical_twist_table(SecantInstance(1, 9, 1), UNPRINTABLE),
        lambda: line_bundle_table("N", UNPRINTABLE, NONSPECIAL),
        lambda: wedge_secant_table(UNPRINTABLE, 1, NONSPECIAL, NONSPECIAL),
    ], ids=["SymE", "CanonicalSymE", "N", "WedgeE"])
    def test_tables_refuse_as_their_entries(self, call):
        with pytest.raises(DomainError, match="^(twist|points) has more than 4000 digits$"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: SecantInstance(LONGEST, 1, 0), f"genus {LONGEST} exceeds the maximum 1000000"),
        (lambda: SecantInstance(-LONGEST, 1, 0), f"genus {-LONGEST} must be nonnegative"),
        (lambda: SecantInstance(0, 3, LONGEST), f"order {LONGEST} exceeds the maximum order 200"),
        (lambda: hilbert_function(SecantInstance(0, 3, 1), -LONGEST),
         f"hilbert_function needs twist >= 0, got {-LONGEST}"),
        (lambda: cone_over_secant(SecantInstance(0, 4, 1), LONGEST),
         f"vertex_count {LONGEST} exceeds the maximum 1000000"),
        (lambda: coh_sym_secant_sheaf(SecantInstance(0, 3, 1), -LONGEST, 0),
         f"coh_sym_secant_sheaf needs twist >= 0, got {-LONGEST}"),
        (lambda: line_bundle_table("N", -LONGEST, NONSPECIAL),
         f"points {-LONGEST} must be positive"),
        (lambda: coh_wedge_secant_sheaf(3, LONGEST, NONSPECIAL, NONSPECIAL, 0),
         f"twist {LONGEST} must lie in 1..3"),
        (lambda: coh_wedge_secant_sheaf(3, 1, NONSPECIAL, NONSPECIAL, -LONGEST),
         f"cohomological index {-LONGEST} must lie in 0..3"),
        (lambda: LineBundleClass.nonspecial(LONGEST, 1),
         f"degree 1 is not forced nonspecial for genus {LONGEST}"),
        (lambda: SecantInstance(0, 3, -LONGEST), f"order {-LONGEST} must be nonnegative"),
        (lambda: SecantInstance(0, -LONGEST, 0), f"degree {-LONGEST} violates d >= 2g+2k+1 = 1"),
        (lambda: coh_canonical_twist(SecantInstance(1, 9, 1), -LONGEST, 0),
         f"coh_canonical_twist needs twist > 0, got {-LONGEST}"),
        (lambda: HilbertSeries(QPolynomial.constant(1), -LONGEST),
         f"krull_dim {-LONGEST} must be positive"),
        (lambda: coh_determinant_line(-LONGEST, NONSPECIAL, 0),
         f"points {-LONGEST} must be positive"),
        (lambda: cone_over_secant(SecantInstance(0, 4, 1), -LONGEST),
         f"vertex_count {-LONGEST} must be nonnegative"),
        (lambda: LineBundleClass.nonspecial(2, -LONGEST),
         f"degree {-LONGEST} is not forced nonspecial for genus 2"),
        (lambda: LineBundleClass(-LONGEST, 0, 1, 0), f"genus {-LONGEST} must be nonnegative"),
        # a bundle's degree, h0 and h1 have at most 4,000 digits
        (lambda: LineBundleClass(2, LONGEST_BUNDLE, LONGEST_BUNDLE, 1),
         f"degree {LONGEST_BUNDLE} > 2g-2 forces h1 = 0, got 1"),
        (lambda: LineBundleClass(2, -LONGEST_BUNDLE, 0, 0),
         f"degree {-LONGEST_BUNDLE} < 0 forces h1 = {LONGEST_BUNDLE + 1}, got 0"),
        (lambda: LineBundleClass(2, 1, -LONGEST_BUNDLE, 0),
         f"h0 = {-LONGEST_BUNDLE}, h1 = 0 must be nonnegative"),
    ], ids=["genus", "negative-genus", "order", "negative-twist", "vertex-count",
            "negative-sym-twist", "negative-points", "wedge-twist", "wedge-index",
            "nonspecial-genus", "negative-order", "degree-bound", "negative-canonical-twist",
            "krull-dim", "negative-determinant-points", "negative-vertex-count",
            "nonspecial-degree", "negative-bundle-genus", "forced-h1", "forced-negative-h1",
            "negative-h0"])
    def test_printable_value_keeps_its_message(self, call, message):
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == message

    # the refusals of another class than DomainError
    @pytest.mark.parametrize("call, error, message", [
        (lambda: tangent_cone_at(SecantInstance(0, 3, 1), LONGEST), StratumOutOfRange,
         f"stratum {LONGEST} outside 0..1"),
        (lambda: node_values(SecantInstance(0, 3, 1))[LONGEST], KeyError,
         f"twist {LONGEST} outside node range range(-1, 3)"),
    ], ids=["stratum", "node-twist"])
    def test_printable_value_keeps_its_class_and_message(self, call, error, message):
        with pytest.raises(error) as caught:
            call()
        assert type(caught.value) is error and caught.value.args == (message,)


class TestNodeValues:
    def test_order1_closed_values(self):
        # a_0, a_1, a_2 as displayed for order 1; the negative node carries
        # the sign that makes chi(-1) <= 0 (see the oracle tests below)
        for g, d in [(0, 4), (1, 5), (2, 9), (3, 12)]:
            nodes = node_values(SecantInstance(g, d, 1))
            assert nodes[-1] == -Fraction(g * d + g * g - g)
            assert nodes[0] == -Fraction(g * g + g - 2, 2)
            assert nodes[1] == d - g + 1
            assert nodes[2] == Fraction((d - g + 2) * (d - g + 1), 2)

    def test_genus0_negative_nodes_vanish(self):
        for k in (1, 2, 3):
            nodes = node_values(SecantInstance(0, 2 * k + 4, k))
            for twist in range(-k, 0):
                assert nodes[twist] == 0

    def test_g2_d9_k1_values(self):
        nodes = node_values(SecantInstance(2, 9, 1))
        assert list(nodes.items()) == [(-1, -20), (0, -2), (1, 8), (2, 36)]

    def test_all_keys_present_and_integral(self):
        for inst in valid_grid(3, 3, 4):
            nodes = node_values(inst)
            assert list(nodes.twists) == list(range(-inst.order, inst.order + 2))
            for twist, value in nodes.items():
                assert value.denominator == 1
                if twist >= 1:
                    assert value > 0

    def test_node_table_builds_no_chi(self):
        # the lower orders are rows of one integer table, not chi builds
        import secantinv.secant_core as core

        core._chi.cache_clear()
        core._node_table.cache_clear()
        node_values(SecantInstance(3, 40, 12))
        assert core._chi.cache_info().currsize == 0

    def test_entries_are_ints(self):
        for inst in [*valid_grid(3, 3, 2), SecantInstance(3, 40, 12)]:
            assert all(type(v) is int for v in node_values(inst).entries)

    # g = 0 extends no row; g = k-1, k, k+1 and g >> k sit at and past the
    # point where the depth min(g, k-j) of row j stops depending on g
    @pytest.mark.parametrize("g, d, k", [
        *((g, d, k) for k in (1, 2, 5, 12) for g in sorted({0, k - 1, k, k + 1, k + 40})
          for d in (2 * g + 2 * k + 1, 2 * g + 2 * k + 6)),
        (0, 1000, 100),
    ])
    def test_truncated_rows_match_full_depth_table(self, g, d, k):
        assert node_values(SecantInstance(g, d, k)).entries == full_depth_node_table(g, d, k)

    def test_node_consistency_with_polynomial(self):
        for inst in valid_grid(3, 3, 4):
            chi = hilbert_polynomial(inst)
            for twist, value in node_values(inst).items():
                assert chi(twist) == value

    # a negative twist would otherwise wrap around to the end of the entries
    @pytest.mark.parametrize("twist", [-2, 3])
    def test_twist_outside_the_nodes_rejected(self, twist):
        nodes = node_values(SecantInstance(2, 9, 1))
        with pytest.raises(KeyError, match=f"twist {twist} outside node range"):
            nodes[twist]


class TestSharedNodeTable:
    """One node table per (g, d), grown across orders and read by all."""

    GENERA = (0, 1, 3, 7, 45)
    ORDERINGS = {
        "ascending": list(range(13)),
        "descending": list(range(12, -1, -1)),
        "interleaved": [5, 0, 12, 3, 9, 1, 11, 2, 7, 4, 10, 6, 8],
    }

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("g", GENERA)
    def test_orders_in_any_sequence_match_full_depth_table(self, g, ordering):
        import secantinv.secant_core as core

        d = 2 * g + 2 * 12 + 3
        core._node_table.cache_clear()
        for k in self.ORDERINGS[ordering]:
            assert node_values(SecantInstance(g, d, k)).entries == full_depth_node_table(g, d, k)

    def test_cache_clear_empties_every_row(self):
        import secantinv.secant_core as core

        orders = (4, 9, 2)
        before = [node_values(SecantInstance(3, 40, k)).entries for k in orders]
        core._chi.cache_clear()
        core._node_table.cache_clear()
        assert core._node_table.cache_info().currsize == 0
        assert [node_values(SecantInstance(3, 40, k)).entries for k in orders] == before

    @pytest.mark.parametrize("g", (0, 3, 45))
    def test_interrupted_growth_leaves_a_consistent_table(self, monkeypatch, g):
        # every value the growth builds goes through a call of zip or sum;
        # stop the growth at each such call in turn, then finish it and
        # read every order
        import builtins

        import secantinv.secant_core as core

        class Stop(Exception):
            pass

        d, k = 2 * g + 20, 6
        calls = 0

        def stopping(real):
            def wrapped(*args):
                nonlocal calls
                calls -= 1
                if calls == 0:
                    raise Stop
                return real(*args)
            return wrapped

        monkeypatch.setattr(core, "sum", stopping(builtins.sum), raising=False)
        monkeypatch.setattr(core, "zip", stopping(builtins.zip), raising=False)
        stop, stopped = 0, True
        while stopped:
            stop += 1
            core._node_table.cache_clear()
            calls = stop
            try:
                core._node_values(g, d, 3)
                core._node_values(g, d, k)
                stopped = False
            except Stop:
                pass
            calls = -1  # never stops again
            for order in (k, *range(k)):
                assert core._node_values(g, d, order) == full_depth_node_table(g, d, order)
        core._node_table.cache_clear()

    def test_concurrent_growth(self):
        # more threads than cores grow one table to different orders at once;
        # a lost or doubled append would corrupt a row
        import sys
        import threading

        import secantinv.secant_core as core

        g, d, orders = 3, 60, (14, 9, 14, 3, 12, 7, 14, 10)
        expected = {k: full_depth_node_table(g, d, k) for k in set(orders)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                core._node_table.cache_clear()
                results = {}
                barrier = threading.Barrier(len(orders))

                def read(slot, k):
                    barrier.wait()
                    results[slot] = core._node_values(g, d, k)

                threads = [threading.Thread(target=read, args=(slot, k))
                           for slot, k in enumerate(orders)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert results == {slot: expected[k] for slot, k in enumerate(orders)}
        finally:
            sys.setswitchinterval(interval)
            core._node_table.cache_clear()


class TestNodeTableDepth:
    """Row j of a node table keeps 2j+2+min(g, K-j) entries, K the highest
    order asked for so far: the lowest twist a later row reads, and no lower."""

    @pytest.mark.parametrize("ordering", TestSharedNodeTable.ORDERINGS)
    @pytest.mark.parametrize("g", TestSharedNodeTable.GENERA)
    def test_rows_keep_the_depth_later_rows_read(self, g, ordering):
        import secantinv.secant_core as core

        d = 2 * g + 2 * 12 + 3
        core._node_table.cache_clear()
        highest = -1
        for k in TestSharedNodeTable.ORDERINGS[ordering]:
            node_values(SecantInstance(g, d, k))
            highest = max(highest, k)
            lengths = [len(row) for row in core._node_table(g, d).rows]
            assert lengths == [2 * j + 2 + min(g, highest - j) for j in range(highest + 1)], k
        core._node_table.cache_clear()

    @pytest.fixture
    def stencil_reads(self, monkeypatch):
        """The rows j, one per call of ``_stencil(j)``: growth reads row j's
        stencil once for each value it appends to row j."""
        import secantinv.secant_core as core

        reads = []
        stencil = core._stencil

        def counting(j):
            reads.append(j)
            return stencil(j)

        monkeypatch.setattr(core, "_stencil", counting)
        return reads

    @staticmethod
    def appended(tables):
        """Row j -> the entries past its 2j+2 node values, over ``tables``."""
        counts = Counter()
        for table in tables:
            for j, row in enumerate(table.rows):
                counts[j] += len(row) - (2 * j + 2)
        return +counts

    @pytest.mark.parametrize("ordering", TestSharedNodeTable.ORDERINGS)
    @pytest.mark.parametrize("g", (0, 1, 3, 7))
    def test_requests_in_any_order_compute_each_value_once(self, g, ordering, stencil_reads):
        import secantinv.secant_core as core

        d = 2 * g + 2 * 12 + 3
        core._node_table.cache_clear()
        for k in TestSharedNodeTable.ORDERINGS[ordering]:
            node_values(SecantInstance(g, d, k))
        assert Counter(stencil_reads) == self.appended([core._node_table(g, d)])
        core._node_table.cache_clear()

    def test_sweep_computes_each_value_once(self, stencil_reads, cold_engine):
        # an ascending sweep appends each value once; its skip notes stay in
        # (g, d, k) order
        import secantinv.secant_core as core
        from secantinv.cli import run

        argv = ["sweep", "--genus-range", "3", "--degree-range", "16:23", "--order-range", "0:8",
                "--invariant", "degree"]
        assert run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
        assert stencil_reads
        tables = [core._node_table(3, d) for d in range(16, 24)]  # 16:23 is inclusive
        assert Counter(stencil_reads) == self.appended(tables)

        err = io.StringIO()
        argv = ["sweep", "--genus-range", "1", "--degree-range", "9:10", "--order-range", "0:4",
                "--invariant", "generators"]
        assert run(argv, stdout=io.StringIO(), stderr=err) == 0
        assert err.getvalue().splitlines() == [
            "skip: genus 1 degree 9 order 3: degree 9 = 2g+2k+1: generators of degree k+2 "
            "not guaranteed, need d >= 10",
            "skip: genus 1 degree 9 order 4: degree 9 violates d >= 2g+2k+1 = 11",
            "skip: genus 1 degree 10 order 4: degree 10 violates d >= 2g+2k+1 = 11",
        ]


class TestStencil:
    @pytest.mark.parametrize("j", (0, 1, 7, 199, 200))
    def test_running_product_matches_binomials(self, j):
        import secantinv.secant_core as core

        core._stencil.cache_clear()
        assert core._stencil(j) == tuple((-1) ** m * comb(2 * j + 2, m)
                                         for m in range(2 * j + 2, 0, -1))


class TestHilbertPolynomial:
    def test_riemann_roch_curve_case(self):
        for g in range(6):
            for d in range(2 * g + 1, 2 * g + 8):
                chi = hilbert_polynomial(SecantInstance(g, d, 0))
                assert chi == QPolynomial([1 - g, d])

    def test_projective_space_collapse(self):
        for k in range(6):
            chi = hilbert_polynomial(SecantInstance(0, 2 * k + 1, k))
            assert chi == binomial_poly(2 * k + 1, 2 * k + 1)

    def test_degree_and_leading_sign(self):
        for inst in valid_grid(3, 4, 3):
            chi = hilbert_polynomial(inst)
            assert chi.degree == 2 * inst.order + 1
            assert chi.leading_coefficient > 0

    def test_g2_d9_k1_at_3(self):
        assert hilbert_polynomial(SecantInstance(2, 9, 1))(3) == 108

    def test_negative_twist_alternating_sum_vanishes(self):
        for inst in valid_grid(4, 4, 4):
            g, d, k = inst.genus, inst.degree, inst.order
            for twist in range(-k, 0):
                total = Fraction(0)
                for i in range(k + 1):
                    total += (
                        (-1) ** i
                        * binomial(g, i)
                        * hilbert_polynomial(SecantInstance(g, d, k - i))(twist)
                    )
                assert total == 0

    # --- independent oracles ---

    def test_against_genus0_determinantal_oracle(self):
        for k in range(4):
            for d in range(2 * k + 1, 2 * k + 9):
                inst = SecantInstance(0, d, k)
                chi = hilbert_polynomial(inst)
                for n in range(1, 2 * k + 9):
                    assert chi(n) == genus0_hilbert_function(d, k, n)

    def test_against_symmetric_square_oracle(self):
        for g in range(6):
            for d in range(2 * g + 3, 2 * g + 12):
                chi = hilbert_polynomial(SecantInstance(g, d, 1))
                for m in range(0, 9):
                    assert chi(m) == order1_chi(g, d, m)

    def test_against_hypersurface_oracles(self):
        # elliptic normal quintic: quintic threefold in P^4
        chi = hilbert_polynomial(SecantInstance(1, 5, 1))
        for m in range(-3, 9):
            assert chi(m) == hypersurface_chi(m, 4, 5)
        # elliptic septic, order 2: degree-7 hypersurface in P^6
        chi = hilbert_polynomial(SecantInstance(1, 7, 2))
        for m in range(-3, 9):
            assert chi(m) == hypersurface_chi(m, 6, 7)
        # rational normal curve of even degree: determinantal hypersurface
        for k in range(4):
            chi = hilbert_polynomial(SecantInstance(0, 2 * k + 2, k))
            for m in range(-3, 9):
                assert chi(m) == hypersurface_chi(m, 2 * k + 2, k + 2)


class TestHilbertFunction:
    def test_twist_zero_is_one(self):
        for inst in [SecantInstance(0, 4, 1), SecantInstance(3, 15, 2)]:
            assert hilbert_function(inst, 0) == 1

    def test_catalecticant_values(self):
        inst = SecantInstance(0, 4, 1)
        assert [hilbert_function(inst, n) for n in range(5)] == [1, 5, 15, 34, 65]

    def test_g2_d9_k1_twist3(self):
        assert hilbert_function(SecantInstance(2, 9, 1), 3) == 108

    def test_low_twist_binomial_values(self):
        for inst in valid_grid(3, 3, 3):
            g, d, k = inst.genus, inst.degree, inst.order
            for twist in range(1, k + 2):
                assert hilbert_function(inst, twist) == binomial(d - g + twist, twist)

    def test_negative_twist_rejected(self):
        with pytest.raises(DomainError):
            hilbert_function(SecantInstance(0, 4, 1), -1)

    def test_twist_admission_limit(self):
        # the secant line variety of the rational normal quartic is a cubic
        # hypersurface in P^4
        inst = SecantInstance(0, 4, 1)
        assert hilbert_function(inst, 10**6) == comb(10**6 + 4, 4) - comb(10**6 + 1, 4)
        with pytest.raises(DomainError) as refused:
            hilbert_function(inst, 10**6 + 1)
        assert str(refused.value) == "twist 1000001 exceeds the maximum 1000000"


class TestVarietyDegree:
    def test_curve_case(self):
        for g, d in [(0, 5), (2, 9), (4, 13)]:
            assert variety_degree(SecantInstance(g, d, 0)) == d

    def test_projective_space(self):
        for k in range(5):
            assert variety_degree(SecantInstance(0, 2 * k + 1, k)) == 1

    def test_catalecticant_cubic(self):
        assert variety_degree(SecantInstance(0, 4, 1)) == 3

    @pytest.mark.parametrize("k", [30, 40])
    def test_genus0_high_order_is_eagon_northcott(self, k):
        # degree C(d-k, k+1) of the Hankel determinantal variety
        assert variety_degree(SecantInstance(0, 2 * k + 10, k)) == comb(k + 10, k + 1)

    def test_chordal_formula(self):
        for g in range(5):
            for d in range(2 * g + 3, 2 * g + 10):
                assert variety_degree(SecantInstance(g, d, 1)) == order1_degree(g, d)


class TestHilbertSeries:
    def test_polynomial_ring(self):
        for k in range(4):
            series = hilbert_series(SecantInstance(0, 2 * k + 1, k))
            assert series.numerator == QPolynomial([1])
            assert series.krull_dim == 2 * k + 2

    def test_catalecticant(self):
        series = hilbert_series(SecantInstance(0, 4, 1))
        assert series.numerator == QPolynomial([1, 1, 1])
        assert series.degree() == variety_degree(SecantInstance(0, 4, 1))

    def test_curve_numerator(self):
        for g, d in [(0, 3), (2, 9), (3, 8)]:
            series = hilbert_series(SecantInstance(g, d, 0))
            assert series.numerator == QPolynomial([1, d - g - 1, g])
            assert series.degree() == d

    def test_elliptic_hypersurfaces_have_all_ones_numerator(self):
        for d, k in [(5, 1), (7, 2), (9, 3)]:
            series = hilbert_series(SecantInstance(1, d, k))
            assert series.numerator == QPolynomial([1] * d)

    def test_krull_dim_zero_rejected(self):
        with pytest.raises(DomainError, match="^krull_dim 0 must be positive$"):
            HilbertSeries(QPolynomial([1]), 0)

    @pytest.mark.parametrize("coefficients, message", [
        ([2, 1], "series numerator has constant term 2, expected 1"),
        ([1, -1], "series numerator coefficient -1 at power 1 is not a nonnegative integer"),
        ([1, Fraction(1, 2)],
         "series numerator coefficient 1/2 at power 1 is not a nonnegative integer"),
    ], ids=["constant-term", "negative", "fractional"])
    def test_invalid_numerator_rejected(self, coefficients, message):
        with pytest.raises(InternalMismatch) as caught:
            HilbertSeries(QPolynomial(coefficients), 4)
        assert str(caught.value) == message

    @pytest.mark.parametrize("krull_dim, count, message", [
        (4, -1, "count -1 must be nonnegative"),
        (4, 10**4 + 1, "count 10001 exceeds the maximum 10000"),
        (4, -UNPRINTABLE, "count has more than 4000 digits"),
        (21, 10**4, "expansion work 210000 exceeds the maximum 200000"),
        (2 * 10**5 + 1, 0, "expansion work 200001 exceeds the maximum 200000"),
        (UNPRINTABLE, 1, "expansion work has more than 4000 digits"),
    ], ids=["negative", "count", "long-count", "work", "empty-work", "long-work"])
    def test_expand_refuses_past_its_limits(self, krull_dim, count, message):
        with pytest.raises(DomainError) as caught:
            HilbertSeries(QPolynomial([1, 1]), krull_dim).expand(count)
        assert str(caught.value) == message

    def test_expand_admits_its_limits(self):
        values = HilbertSeries(QPolynomial([1, 1]), 20).expand(10**4)
        # H(n) = C(n+19, 19) + C(n+18, 19) for Q = 1+t over (1-t)^20
        assert values[:2] == [1, 21] and values[-1] == comb(10**4 + 18, 19) + comb(10**4 + 17, 19)
        assert HilbertSeries(QPolynomial([1]), 2 * 10**5).expand(1) == [1]

    def test_invariants_and_expansion_on_grid(self):
        for inst in valid_grid(3, 3, 3):
            series = hilbert_series(inst)
            assert series.numerator.coefficient(0) == 1
            assert series.degree() == variety_degree(inst)
            for c in series.numerator.coefficients:
                assert c.denominator == 1 and c >= 0
            expanded = series.expand(2 * inst.order + 7)
            expected = [
                hilbert_function(inst, n) for n in range(2 * inst.order + 7)
            ]
            assert expanded == expected


class TestSeriesFromNodeValues:
    """hilbert_series reads Q from the node values; the Horner route above is
    the reference, and the expansion at twist k+2 ties Q to chi."""

    def test_matches_horner_route_on_grid(self):
        grid = list(valid_grid(6, 12, 7))
        # every (g, k) cell, k = 0 included, at the boundary degree 2g+2k+1
        boundary = {(inst.genus, inst.order) for inst in grid
                    if inst.degree == 2 * inst.genus + 2 * inst.order + 1}
        assert boundary == {(g, k) for g in range(7) for k in range(13)}
        for inst in grid:
            assert hilbert_series(inst).numerator == horner_route_numerator(inst), inst

    @pytest.mark.usefixtures("cold_engine")
    def test_expansion_check_is_live(self, monkeypatch):
        import secantinv.secant_core as core

        inst = SecantInstance(2, 9, 1)
        real = core._series_numerator
        assert real(2, 9, 1)[1] >= 1

        def shifted(genus, degree, order):
            # Q(1) and Q >= 0 hold, so only the expansion at twist k+2 can see it
            q = real(genus, degree, order)
            q[1] -= 1
            q[2] += 1
            return q

        monkeypatch.setattr(core, "_series_numerator", shifted)
        with pytest.raises(InternalMismatch, match="^series expansion at twist 3 gives "):
            hilbert_series(inst)

    def test_one_sum_is_the_expansion_at_k_plus_2(self):
        for inst in valid_grid(6, 12, 7):
            k, K = inst.order, inst.krull_dim
            series = hilbert_series(inst)
            q = series.numerator.coefficients[:k + 3]
            one_sum = sum(c * comb(k + 1 - j + K, K - 1) for j, c in enumerate(q))
            assert one_sum == series.expand(k + 3)[k + 2] == hilbert_function(inst, k + 2), inst

    @pytest.mark.usefixtures("cold_engine")
    @pytest.mark.parametrize("g, d, k, digest", [
        (5, 35, 10, "ab392c2f6b32291994430dafe702adad84b0000be64eefc5f56b59046bad7b1d"),
        (5, 95, 40, "8ba74b0320b022d5431091b6bd6d0df7cc6935615dc160f3645093a29aaeec58"),
    ])
    def test_checks_read_no_expansion(self, monkeypatch, g, d, k, digest):
        def forbidden(*args):
            raise AssertionError("hilbert_series must check Q on its integer coefficients")

        monkeypatch.setattr(HilbertSeries, "expand", forbidden)
        monkeypatch.setattr(HilbertSeries, "degree", forbidden)
        wire = ",".join(hilbert_series(SecantInstance(g, d, k)).numerator.to_strings())
        assert hashlib.sha256(wire.encode()).hexdigest() == digest

    @pytest.mark.usefixtures("cold_engine")
    def test_chi_is_evaluated_once(self, monkeypatch):
        import secantinv.secant_core as core

        inst = SecantInstance(3, 40, 12)
        hilbert_polynomial(inst)
        twists = []
        real = core.hilbert_function

        def counted(inst, twist):
            twists.append(twist)
            return real(inst, twist)

        monkeypatch.setattr(core, "hilbert_function", counted)
        hilbert_series(inst)
        assert twists == [14]


def fraction_view_built(poly):
    """Whether ``poly`` holds its coefficients as ``Fraction`` objects, which
    it builds only when ``coefficients`` is read."""
    return "coefficients" in vars(poly)


@pytest.mark.usefixtures("cold_engine")
class TestIntegerPath:
    """A chi build compares its two routes, and the engine's invariants read
    chi and the series numerator, in their integer forms: from cold caches,
    none of them builds the ``Fraction`` coefficients of chi or of Q."""

    @pytest.mark.parametrize("read", [
        hilbert_polynomial, variety_degree, generator_count,
        partial(hilbert_function, twist=7), hilbert_series,
    ], ids=["hilbert_polynomial", "variety_degree", "generator_count", "hilbert_function",
            "hilbert_series"])
    def test_engine_reads_leave_the_fraction_views_unbuilt(self, read):
        inst = SecantInstance(3, 20, 4)
        read(inst)
        assert not fraction_view_built(hilbert_polynomial(inst))
        assert not fraction_view_built(hilbert_series(inst).numerator)

    def test_generator_sweep_leaves_chi_unbuilt(self):
        from secantinv.cli import run

        out = io.StringIO()
        argv = ["sweep", "--genus-range", "0:2", "--degree-range", "5:14", "--order-range", "0:3",
                "--invariant", "generators", "--format", "json"]
        assert run(argv, stdout=out, stderr=io.StringIO()) == 0
        cells = json.loads(out.getvalue())["cells"]
        assert len(cells) > 20
        for cell in cells:
            inst = SecantInstance(cell["genus"], cell["degree"], cell["order"])
            assert not fraction_view_built(hilbert_polynomial(inst)), cell


def monomial_form_built(poly):
    """Whether ``poly``, held as its forward differences, has built its
    monomial form."""
    return "numerators" in vars(poly)


@pytest.mark.usefixtures("cold_engine")
class TestNewtonPath:
    """chi is built, compared and read as its forward differences on the
    node twists, and expanded into monomials only when those are read: by
    ``hilbert_polynomial``, which certifies the expansion by its inverse."""

    @pytest.mark.parametrize("invariant", ["generators", "degree"])
    def test_sweep_leaves_chi_unexpanded(self, invariant):
        import secantinv.secant_core as core
        from secantinv.cli import run

        out = io.StringIO()
        argv = ["sweep", "--genus-range", "0:2", "--degree-range", "5:14", "--order-range", "0:3",
                "--invariant", invariant, "--format", "json"]
        assert run(argv, stdout=out, stderr=io.StringIO()) == 0
        cells = json.loads(out.getvalue())["cells"]
        assert len(cells) > 20
        for cell in cells:
            chi = core._chi(cell["genus"], cell["degree"], cell["order"])
            assert not monomial_form_built(chi), cell

    def test_hilbert_polynomial_returns_the_monomial_form(self):
        import secantinv.secant_core as core

        inst = SecantInstance(3, 20, 4)
        variety_degree(inst)
        assert not monomial_form_built(core._chi(3, 20, 4))
        chi = hilbert_polynomial(inst)
        assert chi is core._chi(3, 20, 4) and monomial_form_built(chi)

    def test_corrupted_expansion_fails_hilbert_but_not_degree(self, monkeypatch):
        import secantinv.exactmath as exactmath
        from secantinv.cli import run

        real = exactmath._newton_to_monomial

        def corrupted(coefficients, abscissae):
            poly = real(coefficients, abscissae)
            poly[1] = -poly[1]
            return poly

        monkeypatch.setattr(exactmath, "_newton_to_monomial", corrupted)
        instance = ["--genus", "2", "--degree", "9", "--order", "1"]
        out, err = io.StringIO(), io.StringIO()
        assert run(["hilbert", *instance], stdout=out, stderr=err) == 3
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: internal-mismatch: ")
        out = io.StringIO()
        assert run(["degree", *instance], stdout=out, stderr=io.StringIO()) == 0
        assert out.getvalue() == f"{order1_degree(2, 9)}\n"

    def test_expansion_slip_that_vanishes_beside_the_nodes_fails_hilbert(self, monkeypatch):
        # the slip adds (u - a_max - 1)(u - a_min + 1), which is zero at the
        # twists just above and just below the nodes, so only a check that
        # reads every Newton coefficient sees it
        import secantinv.exactmath as exactmath
        from secantinv.cli import run

        real = exactmath._newton_to_monomial

        def corrupted(coefficients, abscissae):
            poly = real(coefficients, abscissae)
            high, low = max(abscissae) + 1, min(abscissae) - 1
            for j, c in enumerate((high * low, -(high + low), 1)):
                poly[j] += c
            return poly

        monkeypatch.setattr(exactmath, "_newton_to_monomial", corrupted)
        out, err = io.StringIO(), io.StringIO()
        assert run(["hilbert", "--genus", "2", "--degree", "9", "--order", "1"],
                   stdout=out, stderr=err) == 3
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: internal-mismatch: ")


@pytest.mark.usefixtures("cold_engine")
class TestSeriesMemo:
    """Each (g, d, k) series is built once and kept in its (g, d) node table."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The (g, d, k) of every numerator built from here on."""
        import secantinv.secant_core as core

        calls = []
        real = core._series_numerator

        def counted(genus, degree, order):
            calls.append((genus, degree, order))
            return real(genus, degree, order)

        monkeypatch.setattr(core, "_series_numerator", counted)
        return calls

    def test_second_call_returns_the_built_series(self, builds):
        inst = SecantInstance(3, 40, 12)
        first = hilbert_series(inst)
        assert hilbert_series(inst) is first
        assert builds == [(3, 40, 12)]
        # another order of the same (g, d) is a series of its own
        assert hilbert_series(SecantInstance(3, 40, 11)) is not first
        assert builds == [(3, 40, 12), (3, 40, 11)]

    def test_cleared_caches_rebuild(self, builds):
        import secantinv.secant_core as core

        inst = SecantInstance(3, 40, 12)
        first = hilbert_series(inst)
        core._chi.cache_clear()
        core._node_table.cache_clear()
        again = hilbert_series(inst)
        assert again is not first and again == first
        assert builds == [(3, 40, 12)] * 2

    @pytest.mark.parametrize("shifts, message", [
        ({0: 1}, "^series numerator has constant term 2, expected 1$"),
        ({-1: 1}, "^series numerator at 1 gives "),
        ({1: -1, 2: 1}, "^series expansion at twist 3 gives "),
    ], ids=["constant-term", "degree", "expansion"])
    def test_failed_check_keeps_nothing(self, monkeypatch, shifts, message):
        import secantinv.secant_core as core

        inst = SecantInstance(2, 9, 1)
        real = core._series_numerator

        def corrupted(genus, degree, order):
            q = real(genus, degree, order)
            for power, shift in shifts.items():
                q[power] += shift
            return q

        monkeypatch.setattr(core, "_series_numerator", corrupted)
        for _ in range(2):  # the second call builds again, and fails again
            with pytest.raises(InternalMismatch, match=message):
                hilbert_series(inst)
        assert core._node_table(2, 9).series == {}
        monkeypatch.undo()
        assert hilbert_series(inst).numerator == horner_route_numerator(inst)

    def test_concurrent_requests_share_one_series(self):
        # more threads than cores ask for the same series from empty caches;
        # two of them may build it, but both into the one (g, d) table, so
        # every thread gets the one series that table keeps
        import sys
        import threading

        import secantinv.secant_core as core

        inst = SecantInstance(3, 60, 14)
        expected = HilbertSeries(horner_route_numerator(inst), inst.krull_dim)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                core._node_table.cache_clear()
                results = [None] * 8
                barrier = threading.Barrier(len(results))

                def read(slot):
                    barrier.wait()
                    results[slot] = hilbert_series(inst)

                threads = [threading.Thread(target=read, args=(slot,))
                           for slot in range(len(results))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                kept = core._node_table(3, 60).series[14]
                assert kept == expected
                assert all(result is kept for result in results)
        finally:
            sys.setswitchinterval(interval)


class TestGeneratorCount:
    def test_twisted_cubic(self):
        assert generator_count(SecantInstance(0, 3, 0)) == 3

    def test_catalecticant_single_cubic(self):
        assert generator_count(SecantInstance(0, 4, 1)) == 1

    def test_conic(self):
        assert generator_count(SecantInstance(0, 2, 0)) == 1

    def test_boundary_raises(self):
        with pytest.raises(GeneratorDegreeUnknown):
            generator_count(SecantInstance(0, 3, 1))
        with pytest.raises(GeneratorDegreeUnknown):
            generator_count(SecantInstance(2, 7, 1))

    def test_genus0_matches_minor_count(self):
        for k in range(4):
            for d in range(2 * k + 2, 2 * k + 10):
                assert generator_count(SecantInstance(0, d, k)) == genus0_generators(d, k)

    def test_nonnegative_on_grid(self):
        for inst in valid_grid(3, 3, 4):
            if inst.degree >= 2 * inst.genus + 2 * inst.order + 2:
                assert generator_count(inst) >= 0


class TestCanonicalH0:
    def test_genus_zero(self):
        assert canonical_h0(SecantInstance(0, 9, 2)) == 0

    def test_curve_gives_genus(self):
        for g in range(5):
            assert canonical_h0(SecantInstance(g, 2 * g + 1, 0)) == g

    def test_g2_k1(self):
        assert canonical_h0(SecantInstance(2, 9, 1)) == 3

    def test_equals_one_minus_chi_at_zero(self):
        for inst in valid_grid(4, 3, 3):
            assert canonical_h0(inst) == 1 - hilbert_polynomial(inst)(0)


class TestDualRouteGuard:
    def test_corrupted_interpolation_route_is_detected(self, monkeypatch):
        import secantinv.secant_core as core
        from secantinv import InternalMismatch, lagrange_interpolate as real_interp

        def skewed(nodes):
            first, differences = real_interp(nodes)._differences
            return QPolynomial._forward(first, [differences[0] + 1, *differences[1:]])

        monkeypatch.setattr(core, "lagrange_interpolate", skewed)
        core._chi.cache_clear()
        core._node_table.cache_clear()
        try:
            with pytest.raises(InternalMismatch):
                core.hilbert_polynomial(SecantInstance(2, 9, 1))
        finally:
            monkeypatch.undo()
            core._chi.cache_clear()
            core._node_table.cache_clear()


    def test_corrupted_closed_form_route_is_detected(self, monkeypatch):
        import secantinv.secant_core as core
        from secantinv import InternalMismatch

        real_closed_form = core._closed_form

        def skewed(order, nodes):
            differences = real_closed_form(order, nodes)
            return [differences[0] + 1, *differences[1:]]

        monkeypatch.setattr(core, "_closed_form", skewed)
        core._chi.cache_clear()
        core._node_table.cache_clear()
        try:
            with pytest.raises(InternalMismatch):
                core.hilbert_polynomial(SecantInstance(2, 9, 1))
        finally:
            monkeypatch.undo()
            core._chi.cache_clear()
            core._node_table.cache_clear()


    def test_sweep_names_its_lowest_failing_order(self, monkeypatch, cold_engine):
        # the orders of a (g, d) block are evaluated ascending, so the first
        # mismatch a sweep meets is the lowest failing order
        import secantinv.secant_core as core
        from secantinv.cli import run

        real_closed_form = core._closed_form

        def skewed(order, nodes):
            closed = real_closed_form(order, nodes)
            return [closed[0] + 1, *closed[1:]] if order >= 2 else closed

        monkeypatch.setattr(core, "_closed_form", skewed)
        err = io.StringIO()
        argv = ["sweep", "--genus-range", "1", "--degree-range", "12", "--order-range", "0:4",
                "--invariant", "degree"]
        try:
            assert run(argv, stdout=io.StringIO(), stderr=err) == 3
        finally:
            monkeypatch.undo()
            core._chi.cache_clear()
            core._node_table.cache_clear()
        assert err.getvalue() == ("error: internal-mismatch: closed form and interpolant "
                                  "disagree for (g, d, k) = (1, 12, 2)\n")

    def test_chi_of_the_wrong_degree_is_detected(self, monkeypatch):
        # both routes agree, on a polynomial of degree 2k instead of 2k+1
        import secantinv.secant_core as core

        # 1 + t + t^2 at twists -1, 0, 1 is 1, 1, 3, with forward differences 1, 0, 2
        wrong = QPolynomial._forward(-1, [1, 0, 2])
        monkeypatch.setattr(core, "_closed_form", lambda order, nodes: [1, 0, 2, 0])
        monkeypatch.setattr(core, "lagrange_interpolate", lambda nodes: wrong)
        core._chi.cache_clear()
        try:
            with pytest.raises(InternalMismatch, match="has degree 2 and leading coefficient 1"):
                core.hilbert_polynomial(SecantInstance(2, 9, 1))
        finally:
            monkeypatch.undo()
            core._chi.cache_clear()

    def test_zero_chi_is_detected(self, monkeypatch):
        # both routes agree on the zero polynomial, which has no leading
        # coefficient: the guard still names the shape, and the CLI exits 3
        import secantinv.secant_core as core
        from secantinv.cli import run

        monkeypatch.setattr(core, "_closed_form", lambda order, nodes: [0, 0, 0, 0])
        monkeypatch.setattr(core, "lagrange_interpolate",
                            lambda nodes: QPolynomial._forward(-1, [0, 0, 0, 0]))
        core._chi.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        try:
            with pytest.raises(InternalMismatch, match="has degree -1 and leading coefficient 0"):
                core.hilbert_polynomial(SecantInstance(2, 9, 1))
            code = run(["degree", "--genus", "2", "--degree", "9", "--order", "1"],
                       stdout=out, stderr=err)
        finally:
            monkeypatch.undo()
            core._chi.cache_clear()
        assert (code, out.getvalue()) == (3, "")
        assert err.getvalue() == ("error: internal-mismatch: chi for (2, 9, 1) has degree -1 "
                                  "and leading coefficient 0\n")

    def test_both_routes_difference_one_read_of_the_node_row(self, monkeypatch, cold_engine):
        # over a cold sweep, each chi build reads its node row once, and the
        # closed form and the interpolation both get that row's ordinates
        import secantinv.secant_core as core
        from secantinv.cli import run

        reads, rows, closed_rows, interpolated_rows = [], [], [], []
        real_nodes, real_closed_form = core._node_values, core._closed_form
        real_interp = core.lagrange_interpolate

        def reading(genus, degree, order):
            reads.append((genus, degree, order))
            rows.append(real_nodes(genus, degree, order))
            return rows[-1]

        def closing(order, nodes):
            closed_rows.append(nodes)
            return real_closed_form(order, nodes)

        def interpolating(nodes):
            interpolated_rows.append(tuple(y for _, y in nodes))
            return real_interp(nodes)

        monkeypatch.setattr(core, "_node_values", reading)
        monkeypatch.setattr(core, "_closed_form", closing)
        monkeypatch.setattr(core, "lagrange_interpolate", interpolating)
        argv = ["sweep", "--genus-range", "0:2", "--degree-range", "3:15", "--order-range", "0:3",
                "--invariant", "generators"]
        try:
            assert run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
            builds = core._chi.cache_info().currsize
        finally:
            monkeypatch.undo()
            core._chi.cache_clear()
            core._node_table.cache_clear()
        # generators skips the boundary d = 2g+2k+1 before it builds chi
        cells = sum(d >= 2 * g + 2 * k + 2 for g in range(3) for d in range(3, 16) for k in range(4))
        assert builds == cells == len(set(reads)) == len(reads)
        assert closed_rows == interpolated_rows == rows
        assert all(closed is read for closed, read in zip(closed_rows, rows))


class TestPinnedChi:
    """sha256 of chi's comma-joined wire strings, recorded with the engine
    that built both routes in ``Fraction`` arithmetic."""

    @pytest.mark.parametrize(
        "g, d, k, digest",
        [
            (5, 35, 10, "a89c3895bf465df89dc56bd115f6d966a228b94091c42b8d5900248a365fe89a"),
            (5, 55, 20, "336afc224eb69d3c37501d3f595198942735a8ebd7296fb75f5d4b884820adce"),
            (5, 95, 40, "4a6dea80a558fa56945a15e85263c203a81e3374bc2c8d8a54c372223ce1c230"),
            (0, 1000, 100, "7f2f9250c57ac568ed631e2b94370b24ca06b7913a4d4b8c9370359c2135d02c"),
        ],
    )
    def test_chi_coefficients_unchanged(self, g, d, k, digest):
        wire = ",".join(hilbert_polynomial(SecantInstance(g, d, k)).to_strings())
        assert hashlib.sha256(wire.encode()).hexdigest() == digest


class TestPinnedChiTopOrder:
    """The same digest at the largest admitted order with g > 0, where every
    node row but the last is extended, recorded with the engine that built
    the closed form from the product polynomial by synthetic division."""

    @pytest.mark.parametrize(
        "g, d, k, digest",
        [
            (5, 1000, 200, "a004b33059eba08c730cfd1814057b7013dd4ab9119151642ad438c1065ca7bd"),
            (30, 1000, 200, "f42481c01448dcfca1db701d920d2b47c526b53681ccccbef53a03b4abbe53e4"),
        ],
    )
    def test_chi_coefficients_unchanged(self, g, d, k, digest):
        wire = ",".join(hilbert_polynomial(SecantInstance(g, d, k)).to_strings())
        assert hashlib.sha256(wire.encode()).hexdigest() == digest


class TestPinnedSeries:
    """sha256 of the series numerator's comma-joined wire strings, recorded
    with the engine that expanded (1-t)^K as binomial sums."""

    @pytest.mark.parametrize(
        "g, d, k, digest",
        [
            (5, 35, 10, "ab392c2f6b32291994430dafe702adad84b0000be64eefc5f56b59046bad7b1d"),
            (5, 95, 40, "8ba74b0320b022d5431091b6bd6d0df7cc6935615dc160f3645093a29aaeec58"),
            (0, 1000, 100, "25ea5f0bd1fcaaec9bada3aebbfe417fd4bee96620a7f3761720cc926aef61a8"),
            (5, 1000, 200, "9404b60488d904e96cd7eb2d60e3d2b846966aaec80b6f5de7b3e485300eee28"),
            (30, 1000, 200, "ff0c01711ae2f749905dbb263dc12ae371f28b2fb310d35a00575e569794903e"),
        ],
    )
    def test_series_numerator_unchanged(self, g, d, k, digest):
        wire = ",".join(hilbert_series(SecantInstance(g, d, k)).numerator.to_strings())
        assert hashlib.sha256(wire.encode()).hexdigest() == digest


class TestDualValues:
    def test_negated_chi_nonnegative_at_negative_twists(self):
        # at twist 0 the value is canonical_h0 - 1, which is -1 when g = 0,
        # so nonnegativity at 0 only applies to positive genus
        for inst in valid_grid(4, 3, 3):
            chi = hilbert_polynomial(inst)
            assert -chi(0) == canonical_h0(inst) - 1
            for twist in range(1, 2 * inst.order + 6):
                value = -chi(-twist)
                assert value.denominator == 1
                assert value >= 0
            if inst.genus >= 1:
                assert -chi(0) >= 0
