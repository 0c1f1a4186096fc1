import pytest
from lattice_oracle import generator_sets, naive_lattice, naive_span

from approxalg import DomainMismatchError, PreconditionError, ResidueRing, Z
from approxalg.closures import check_axioms
from approxalg.modules import (
    SAMPLED_PAIR_SUBSETS,
    GeneratedSubmoduleClosure,
    ModuleSetShiftClosure,
    ModuleUnionFixedClosure,
    SubmoduleShiftClosure,
    check_cm_axioms,
    finite_module,
    is_approx_submodule,
    iso_first,
    iso_second,
    iso_third,
    module_hom,
    module_quotient,
    scaling_hom,
)
from approxalg.rings import sort_key

M12 = finite_module(Z, [12])
M8 = finite_module(Z, [8])
M22 = finite_module(Z, [2, 2])


class TestModuleConstruction:
    def test_action_compatibility_enforced(self):
        with pytest.raises(PreconditionError):
            finite_module(ResidueRing(3), [2])

    def test_residue_scalars_accepted_when_compatible(self):
        mod = finite_module(ResidueRing(12), [4, 6])
        assert mod.cardinality() == 24

    def test_residue_scalars_of_full_order(self):
        """64 scalars on 64 elements: the laws follow from the divisibility
        precondition and are not re-checked pair by pair, so the module
        costs no more than its submodule lattice."""
        mod = finite_module(ResidueRing(64), [64])
        assert mod.all_submodules() == [
            frozenset((k,) for k in range(0, 64, d))
            for d in (64, 32, 16, 8, 4, 2, 1)]
        assert mod.act(63, (5,)) == (59,)

    def test_span(self):
        assert M12.span([(4,)]) == frozenset({(0,), (4,), (8,)})

    def test_submodule_enumeration(self):
        assert len(M12.all_submodules()) == 6
        assert len(M22.all_submodules()) == 5

    @pytest.mark.parametrize("orders", [[8], [12], [2, 4], [2, 2, 2], [3, 3]],
                             ids=str)
    def test_kernel_against_naive_fixpoint(self, orders):
        mod = finite_module(Z, orders)
        elems = sorted(mod.elements(), key=sort_key)
        assert mod.all_submodules() == \
            naive_lattice(mod, mod.scalar_reps, mod.act)
        for gens in generator_sets(elems):
            assert mod.span(gens) == \
                naive_span(mod, gens, mod.scalar_reps, mod.act)
            assert mod.subgroup_closure(gens) == naive_span(mod, gens)

    def test_non_canonical_and_foreign_values(self):
        assert M8.span([(9,)]) == M8.span([(1,)])
        assert M8.subgroup_closure([(-2,)]) == M8.subgroup_closure([(6,)])
        with pytest.raises(DomainMismatchError):
            M22.span([(1,)])


def action_law_violation(mod):
    """The first law of the action that fails, by name, or None:
    r(x + y) = rx + ry, (r + s)x = rx + sx, (rs)x = r(sx) and 1x = x, over
    every scalar representative and element."""
    elems = list(mod.elements())
    for r in mod.scalar_reps:
        for x in elems:
            for y in elems:
                if mod.act(r, mod.add(x, y)) != \
                        mod.add(mod.act(r, x), mod.act(r, y)):
                    return "additive"
    for r in mod.scalar_reps:
        for s in mod.scalar_reps:
            for x in elems:
                if mod.act(r + s, x) != mod.add(mod.act(r, x), mod.act(s, x)):
                    return "scalar-additive"
                if mod.act(r * s, x) != mod.act(r, mod.act(s, x)):
                    return "multiplicative"
    for x in elems:
        if mod.act(1, x) != x:
            return "unit"
    return None


@pytest.mark.parametrize("scalars, orders", [
    (Z, [12]), (Z, [8]), (Z, [2, 2]), (Z, [2, 4]), (Z, [2, 2, 2]),
    (Z, [3, 3]), (Z, [6]), (Z, [9]), (Z, [16]), (Z, [24]),
    (ResidueRing(12), [4, 6]),
    (ResidueRing(8), [2, 4]), (ResidueRing(6), [6])], ids=str)
def test_action_laws_hold(scalars, orders):
    """The laws the constructor no longer re-checks, on the modules these
    tests build (the 64-element one takes seconds here and is left out)."""
    assert action_law_violation(finite_module(scalars, orders)) is None


class TestCMAxioms:
    def test_shifted_closure_passes_exhaustively(self):
        cl = SubmoduleShiftClosure(M12, [(6,)])
        rep = check_cm_axioms(M12, cl, mode="exhaustive")
        assert rep.all_pass(), rep.to_text()
        assert set(rep.verdicts) == {"CM1", "CM2", "CM3", "CM4", "absorption"}

    def test_generated_closure_passes(self):
        rep = check_cm_axioms(M22, GeneratedSubmoduleClosure(M22),
                              mode="exhaustive")
        assert rep.all_pass(), rep.to_text()

    def test_broken_operator_fails(self):
        broken = ModuleUnionFixedClosure(M12, [(1,)])
        rep = check_cm_axioms(M12, broken, mode="exhaustive")
        assert not (rep.verdicts["CM3"].passed and rep.verdicts["CM4"].passed)
        assert any(v.counterexample for v in rep.failed())

    def test_sampled_mode_for_larger_modules(self):
        m24 = finite_module(Z, [24])
        cl = SubmoduleShiftClosure(m24, [(8,)])
        rep = check_cm_axioms(m24, cl, mode="sampled", count=40)
        assert rep.all_pass(), rep.to_text()

    def test_sampled_domain_states_the_pair_subsets(self):
        m6 = finite_module(Z, [6])
        count = SAMPLED_PAIR_SUBSETS + 20
        rep = check_cm_axioms(m6, GeneratedSubmoduleClosure(m6),
                              mode="sampled", count=count)
        n_sub = len(m6.all_submodules())
        assert rep.domain == (
            f"{count + n_sub} sampled subsets of {m6}; "
            f"C2 and C4a on pairs of the first {SAMPLED_PAIR_SUBSETS}")
        assert rep.all_pass(), rep.to_text()


    @pytest.mark.parametrize("orders, make", [
        ([12], lambda m: SubmoduleShiftClosure(m, [(6,)])),
        ([12], lambda m: ModuleUnionFixedClosure(m, [(1,)])),
        ([2, 4], lambda m: ModuleSetShiftClosure(m, [(0, 2)])),
        ([2, 4], lambda m: ModuleUnionFixedClosure(m, [(1, 1)]))],
        ids=["shift-12", "union-fixed-12", "setshift-2x4", "union-fixed-2x4"])
    def test_exhaustive_mode_renames_check_axioms(self, orders, make):
        """CM1-CM3 are C1-C3 and CM4 is C4a and then C4b, with the report
        ``check_axioms`` gives the same closure."""
        mod = finite_module(Z, orders)
        cl = make(mod)
        inner = check_axioms(cl, mode="exhaustive")
        rep = check_cm_axioms(mod, cl, mode="exhaustive")
        assert (rep.mode, rep.domain) == (inner.mode, inner.domain)
        for name, part in [("CM1", "C1"), ("CM2", "C2"), ("CM3", "C3"),
                           ("absorption", "absorption")]:
            got, want = rep.verdicts[name], inner.verdicts[part]
            assert (got.passed, got.counterexample) == \
                (want.passed, want.counterexample)
        c4a, c4b = inner.verdicts["C4a"], inner.verdicts["C4b"]
        first = c4a if not c4a.passed else c4b
        assert rep.verdicts["CM4"].passed == (c4a.passed and c4b.passed)
        assert rep.verdicts["CM4"].counterexample == first.counterexample

    def test_other_modes_are_check_axioms_modes(self):
        """Subgroups mode runs the subgroup list, not a sample, and a mode
        ``check_axioms`` does not know is refused."""
        m4 = finite_module(Z, [4])
        cl = GeneratedSubmoduleClosure(m4)
        rep = check_cm_axioms(m4, cl, mode="subgroups")
        assert (rep.mode, rep.domain) == (
            "subgroups", "3 additive subgroups of mod:Z:[4]")
        assert rep.all_pass(), rep.to_text()
        with pytest.raises(PreconditionError,
                           match="unknown axiom-check mode 'bogus'"):
            check_cm_axioms(m4, cl, mode="bogus")

    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "sampled"])
    def test_closure_on_another_module_is_refused(self, mode):
        """A closure on Z/8 is no closure on Z/4: it was read on Z/4's
        subsets (all passing) or past their end (an IndexError)."""
        with pytest.raises(DomainMismatchError):
            check_cm_axioms(finite_module(Z, [4]),
                            GeneratedSubmoduleClosure(M8), mode=mode)


class TestSubmodules:
    def test_classical_submodule(self):
        ok, _ = is_approx_submodule(M8, M8.subgroup_closure([(4,)]),
                                    GeneratedSubmoduleClosure(M8))
        assert ok

    def test_klein_component(self):
        ok, _ = is_approx_submodule(M22, {(0, 0), (1, 0)},
                                    GeneratedSubmoduleClosure(M22))
        assert ok

    def test_diagonal_with_trivial_setshift(self):
        # the integer scalars act diagonally, so the diagonal is absorbed
        cl = ModuleSetShiftClosure(M22, [(0, 0)])
        ok, _ = is_approx_submodule(M22, {(0, 0), (1, 1)}, cl)
        assert ok

    def test_non_subgroup_rejected(self):
        with pytest.raises(PreconditionError):
            is_approx_submodule(M12, {(0,), (1,)},
                                GeneratedSubmoduleClosure(M12))


class TestModuleQuotient:
    def test_shifted_quotient_classes(self):
        cl = SubmoduleShiftClosure(M12, [(6,)])
        q = module_quotient(M12, M12.subgroup_closure([(4,)]), cl)
        assert q.class_count() == 2
        assert q.ok()

    def test_whole_module_gives_single_class(self):
        cl = GeneratedSubmoduleClosure(M12)
        q = module_quotient(M12, M12.subgroup_closure([(1,)]), cl)
        assert q.class_count() == 1

    def test_zero_submodule_recovers_module(self):
        cl = GeneratedSubmoduleClosure(M12)
        q = module_quotient(M12, {(0,)}, cl)
        assert q.class_count() == 12


class TestHomsAndKernels:
    def test_kernel_of_triple_map(self):
        f = scaling_hom(M12, GeneratedSubmoduleClosure(M12), 3)
        assert sorted(f.kernel()) == [(0,), (4,), (8,)]

    def test_kernel_with_shifted_target_closure(self):
        f = scaling_hom(M12, GeneratedSubmoduleClosure(M12), 3,
                        cl_dst=SubmoduleShiftClosure(M12, [(6,)]))
        assert sorted(f.kernel()) == [(0,), (2,), (4,), (6,), (8,), (10,)]

    def test_zero_map_kernel_is_everything(self):
        f = scaling_hom(M12, GeneratedSubmoduleClosure(M12), 0)
        assert len(f.kernel()) == 12

    def test_kernel_is_approx_submodule_when_hom_compatible(self):
        f = scaling_hom(M12, GeneratedSubmoduleClosure(M12), 3)
        assert f.image_compatible().passed
        ok, _ = is_approx_submodule(M12, f.kernel(),
                                    GeneratedSubmoduleClosure(M12))
        assert ok

    def test_noisy_map_accepted_under_coarse_closure(self):
        # f(x) = x + 6*[x odd] is not additive, but lands inside the
        # cosets of the shift submodule (6)
        cl = SubmoduleShiftClosure(M12, [(6,)])
        table = {x: (M12.add(x, (6,)) if x[0] % 2 else x)
                 for x in M12.elements()}
        f = module_hom(M12, M12, cl, cl, table)
        assert f.apply((1,)) == (7,)

    def test_genuinely_non_hom_rejected_under_fine_closure(self):
        cl = GeneratedSubmoduleClosure(M12)
        table = {x: ((x[0] + 1) % 12,) for x in M12.elements()}
        with pytest.raises(PreconditionError):
            module_hom(M12, M12, cl, cl, table)


class TestIsomorphismTheorems:
    def test_first_iso_triple_map(self):
        f = scaling_hom(M12, GeneratedSubmoduleClosure(M12), 3)
        verdict = iso_first(f)
        assert verdict.ok()
        assert verdict.left_size == verdict.right_size == 4

    def test_first_iso_reports_closed_image_sizes(self):
        f = scaling_hom(M12, GeneratedSubmoduleClosure(M12), 3)
        verdict = iso_first(f)
        reports = [v for v in verdict.verdicts
                   if v.name == "closed-image-report"]
        assert reports
        detail = reports[0].details
        assert detail["image-size"] == 4
        assert detail["image-is-closed"] is True

    def test_second_iso_z24(self):
        m24 = finite_module(Z, [24])
        verdict = iso_second(m24, GeneratedSubmoduleClosure(m24),
                             [(4,)], [(6,)])
        assert verdict.ok()
        assert verdict.left_size == 3

    def test_third_iso_z24(self):
        m24 = finite_module(Z, [24])
        verdict = iso_third(m24, GeneratedSubmoduleClosure(m24),
                            [(12,)], [(6,)])
        assert verdict.ok()
        assert verdict.right_size == 6

    def test_third_iso_requires_containment(self):
        with pytest.raises(PreconditionError):
            iso_third(M12, GeneratedSubmoduleClosure(M12), [(4,)], [(6,)])

    def test_shifted_closure_instances(self):
        m24 = finite_module(Z, [24])
        sh = SubmoduleShiftClosure(m24, [(8,)])
        assert iso_second(m24, sh, [(4,)], [(6,)]).ok()
        assert iso_third(m24, sh, [(8,)], [(4,)]).ok()

    def test_product_module_instances(self):
        cl = GeneratedSubmoduleClosure(M22)
        f = scaling_hom(M22, cl, 1)
        assert iso_first(f).ok()
        m24b = finite_module(Z, [2, 4])
        cl24 = GeneratedSubmoduleClosure(m24b)
        assert iso_second(m24b, cl24, [(1, 0)], [(0, 2)]).ok()
        assert iso_third(m24b, cl24, [(0, 2)], [(0, 1)]).ok()
