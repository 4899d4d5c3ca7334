"""Every input rule's refusal, pinned by exact type and message, and the
one place in ``src/pamod`` where each shared rule is written."""

import ast
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from pamod import certify, cli, cut_events, cuts, experiment, models, modularity
from pamod.models import Model, MultiGraph

SRC = pathlib.Path(models.__file__).parent
STD, TIL = Model.STANDARD, Model.TILDE
K3 = MultiGraph.from_pairs(3, [(1, 2), (2, 3), (1, 3)])
EDGELESS = MultiGraph(n=3, edges=())
ISOLATED_3 = MultiGraph.from_pairs(3, [(1, 2)])
SWEEP = dict(model="standard", h_list=(2,), n_list=(4,), trials=1, root_seed=1)
GRAPH = {"model": "standard", "h": 0, "n": 3, "seed": 0, "edges": []}
SPEC = cut_events.CutEventSpec(1, 2, {1}, ())
LONG = "x" * 100_000
PA_LOG, PA = models.generate(STD, 2, 4, 1)  # a graph the expansion bounds take


def _nested(inner, depth):
    """``inner`` wrapped ``depth`` times in a one-item container of its type."""
    for _ in range(depth):
        inner = type(inner)([inner])
    return inner


HN = "need h >= 1 and n >= 1, got h={}, n={}"
U = "need 0 < u <= 1/2, got {}"
H2 = "need h >= 2, got {}"
CAP = "{} logs of length {}: step {} would hold {} logs, over the enumeration cap 500000"

# (callable, positional args, exact ValueError message)
REFUSALS = [
    # models: processes, seeds, sampler and exact laws
    (models.ArrivalLog, (STD, 0, 3, (1,)), HN.format(0, 3)),
    (models.ArrivalLog, (TIL, 2, -1, (1,)), HN.format(2, -1)),
    (models.generate, (STD, 2, 0, 1), HN.format(2, 0)),
    (models.generate, (TIL, 0, 0, 1), HN.format(0, 0)),
    (models.generate, ("bogus", 1, 1, 1), "unknown model 'bogus'"),
    (models.sample_target_matrix, (STD, 0, 5, 1), "need length >= 1, got 0"),
    (models.sample_target_matrix, (TIL, 5, 0, 1), "need trials >= 1, got 0"),
    (models.derive_seed, (1, -1), "stream index must be >= 0, got -1"),
    (models.exact_small_t_distribution, (STD, 0), "need t_max >= 1, got 0"),
    (models._enumerate_logs, (STD, 15), CAP.format("standard", 15, 10, 3628800)),
    (models.exact_small_t_distribution, (TIL, 12), CAP.format("tilde", 12, 11, 3628800)),
    (models.graph_from_json, (GRAPH,), HN.format(0, 3)),
    # cut events
    (cut_events.CutEventSpec, (0, 2, {1}, ()), HN.format(0, 2)),
    (cut_events.CutEventSpec, (1, 2, set(), ()), "subset must be nonempty"),
    (cut_events.CutEventSpec, (1, 2, {3}, ()), "vertex 3 out of range 1..2"),
    (cut_events.CutEventSpec, (1, 2, {1}, {3}), "arrival 3 out of range 1..2"),
    (cut_events.CutEventSpec, (1, 2, {1}, {2}), "|A| = 1 must be < h|S| = 1"),
    (cut_events.cut_event_bound, (0, 2, 1, 0), HN.format(0, 2)),
    (cut_events.cut_event_bound, (2, 2, 3, 0), "need 1 <= k <= n, got k=3"),
    (cut_events.cut_event_bound, (2, 2, 1, 2), "need 0 <= a < h*k = 2, got a=2"),
    (cut_events.scan_cut_events, (STD, 1, 0), HN.format(1, 0)),
    (cut_events.scan_cut_events, (TIL, -1, 3), HN.format(-1, 3)),
    # cuts: vertex sets and the rational u
    (cuts.edge_boundary, (K3, {0}), "vertex 0 out of range 1..3"),
    (cuts.edge_boundary, (K3, {1, 4}), "vertex 4 out of range 1..3"),
    (cuts.exact_expansion, (K3, 0), U.format(0)),
    (cuts.exact_expansion, (K3, "3/4"), U.format("3/4")),
    (cuts.exact_expansion, (K3, "abc"), "Invalid literal for Fraction: 'abc'"),
    (cuts.exact_expansion, (K3, math.inf), "u must be finite, got inf"),
    (cuts.exact_expansion, (K3, [1]), "cannot interpret list as a rational"),
    (cuts.sampled_expansion, (K3, 1, 4, 0), U.format(1)),
    (cuts.sampled_expansion, (K3, "1/2", 0, 0), "need trials >= 1, got 0"),
    # modularity
    (modularity.check_partition, (K3, [{1, 2, 3, 4}]), "vertex 4 out of range 1..3"),
    (modularity.check_partition, (K3, [{1}, {0, 2, 3}]), "vertex 0 out of range 1..3"),
    (modularity.check_partition, (K3, [{1, 2}, set(), {3}]), "empty part in partition"),
    (modularity.check_partition, (K3, [{1, 2}, {2, 3}]), "vertex 2 appears in two parts"),
    (modularity.check_partition, (K3, [{1, 2}]), "partition does not cover all vertices"),
    (modularity.modularity_score, (K3, [{5}]), "vertex 5 out of range 1..3"),
    (modularity.negative_relative_modularity, (EDGELESS, {1}), "subset has zero volume"),
    (modularity.negative_relative_modularity, (K3, {9}), "vertex 9 out of range 1..3"),
    (modularity.worst_part_bound, (EDGELESS, [{1, 2, 3}]), "graph has no edges"),
    (modularity.worst_part_bound, (ISOLATED_3, [{1, 2}, {3}]), "part has zero volume"),
    (modularity.bound_from_expansion_profile, ({}, 2, 1), "profile bound needs n >= 2"),
    (modularity.bound_from_expansion_profile, ({1: Fraction(1)}, 0, 2), "need h >= 1, got 0"),
    # certify: h >= 2, the float u, precision and eta
    (certify.TailParams, (1, 0.1, 10, 0.5), H2.format(1)),
    (certify.TailParams, (2, 0.1, 10, 0.6), U.format(0.6)),
    (certify.TailParams, (2, 0.1, 10, 0.0), U.format(0.0)),
    (certify.check_rate_condition, (1, 0.5, 0.1), H2.format(1)),
    (certify.check_rate_condition, (2, 0.0, 0.1), U.format(0.0)),
    (certify.check_rate_condition, (2, 0.5, 0.0), "need 0 < x <= 1, got 0.0"),
    (certify.max_certified_delta, (0.0,), U.format(0.0)),
    (certify.max_certified_delta, (0.75, 1e-3), U.format(0.75)),
    (certify.max_certified_delta, (0.5, 1e-17), "need 2^-55 <= precision <= 1/4, got 1e-17"),
    (certify.max_certified_delta, (0.5, 0.25), "precision 0.25 leaves no admissible multiples"),
    (certify.complement_term_dominates, (0.0, 0.1), U.format(0.0)),
    (certify.complement_term_dominates, (0.6, 0.1), U.format(0.6)),
    (certify.expansion_constant_value, (0.0,), "need 0 < eta < 1, got 0.0"),
    (certify.check_expansion_constant, (1.0,), "need 0 < eta < 1, got 1.0"),
    (certify.large_h_modularity_bound, (1,), H2.format(1)),
    # experiment
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "tasks": []},),
     "tasks must be nonempty"),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "model": "bogus"},),
     "unknown model 'bogus'"),
    # appended below the rows above, whose ids carry their index:
    # trials must be an int, as a sweep config's counts must
    (models.sample_target_matrix, (STD, 5, True, 1), "trials must be an integer, got True"),
    (models.sample_target_matrix, (TIL, 0, 2.5, 1), "trials must be an integer, got 2.5"),
    (cut_events.estimate_cut_event, (STD, SPEC, 0, 1), "need trials >= 1, got 0"),
    (cut_events.estimate_cut_event, (STD, SPEC, True, 1), "trials must be an integer, got True"),
    (cut_events.estimate_cut_event, (TIL, SPEC, "3", 1), "trials must be an integer, got '3'"),
    (cuts.sampled_expansion, (K3, "1/2", True, 0), "trials must be an integer, got True"),
    (cuts.sampled_expansion, (K3, "1/2", 2.5, 0), "trials must be an integer, got 2.5"),
    (cuts.sampled_expansion, (K3, "1/2", "3", 0), "trials must be an integer, got '3'"),
    # a long value is cut to its first 60 characters
    (models.generate, (LONG, 1, 1, 1), f"unknown model '{LONG[:59]}..."),
    (models.graph_from_json, ({**GRAPH, "model": LONG},),
     f"malformed graph payload: unknown model '{LONG[:59]}..."),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "model": LONG},),
     f"unknown model '{LONG[:59]}..."),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "tasks": ["bounds", LONG]},),
     f"unknown tasks ['{LONG[:60]}...']; valid tasks are {experiment.TASKS}"),
    # h and n must be ints, as a graph file's must: generate used to save
    # "h": true, which load_graph refuses, and 2.0 or "3" failed deep inside
    (models.generate, (STD, True, 3, 1), "h must be an integer, got True"),
    (models.generate, (TIL, 2, 3.0, 1), "n must be an integer, got 3.0"),
    (models.ArrivalLog, (STD, "2", 1, (1, 1)), "h must be an integer, got '2'"),
    (cut_events.scan_cut_events, (STD, True, 3), "h must be an integer, got True"),
    (cut_events.scan_cut_events, (TIL, 2.0, 3), "h must be an integer, got 2.0"),
    (cut_events.CutEventSpec, (2, "3", {1}, ()), "n must be an integer, got '3'"),
    (cut_events.cut_event_bound, (2, False, 1, 0), "n must be an integer, got False"),
    # a huge u is cut as any long value; past Python's int-to-text digit
    # limit it shows as a power of ten
    (cuts.exact_expansion, (K3, "1e400"), U.format(f"1{'0' * 59}...")),
    (cuts.exact_expansion, (K3, "1e5000"), U.format("about 10^5000")),
    (cuts.sampled_expansion, (K3, "-1e5000", 4, 0), U.format("about -10^5000")),
    # cut-event inputs must be ints: {2.5} as A was the law of A = {}
    # presented against the |A| = 1 bound, and k or a raised TypeError
    (cut_events.CutEventSpec, (2, 3, {1, 2}, {2.5}), "arrival must be an integer, got 2.5"),
    (cut_events.CutEventSpec, (2, 3, {1, 2}, {True}), "arrival must be an integer, got True"),
    (cut_events.CutEventSpec, (2, 3, {1.0}, ()), "vertex must be an integer, got 1.0"),
    (cuts.edge_boundary, (K3, {"2"}), "vertex must be an integer, got '2'"),
    (modularity.check_partition, (K3, [{1, 2}, {True}]), "vertex must be an integer, got True"),
    (cut_events.cut_event_bound, (2, 3, 1.5, 0), "k must be an integer, got 1.5"),
    (cut_events.cut_event_bound, (2, 3, 2, True), "a must be an integer, got True"),
    (models.sample_target_matrix, (STD, 2.5, 3, 1), "length must be an integer, got 2.5"),
    (models.sample_target_matrix, (TIL, True, 3, 1), "length must be an integer, got True"),
    # a u too long to show: cut as any long value, or refused up front
    # when no result could show it
    (cuts.exact_expansion, (K3, LONG), f"Invalid literal for Fraction: '{LONG[:59]}..."),
    (cuts.exact_expansion, (K3, "1e-5000"), "need u of at most 4300 digits, got about 10^-5000"),
    # a literal past Python's int digit limit was called an invalid literal
    (cuts._check_u, ("0." + "1" * 5001,), f"need u of at most 4300 digits, got '0.{'1' * 57}..."),
    (cuts._check_u, ("1" * 5001,), f"need u of at most 4300 digits, got '{'1' * 59}..."),
    # 10^8 trials at h*n = 2000 would ask for about 1.5 TiB
    (models.sample_target_matrix, (STD, 2000, 10**8, 1),
     "200000000000 cells, over the target cell cap 25000000"),
    # a u that is no rational is shown as any value: a long tuple's repr
    # made a 150,031-character line, and a list nested 100,000 deep
    # raised RecursionError
    (cuts.exact_expansion, (K3, (1,) * 50_000),
     f"cannot interpret {('(' + '1, ' * 20)[:60]}... as a rational"),
    (cuts.exact_expansion, (K3, _nested([], 100_000)), "cannot interpret list as a rational"),
    (cuts.exact_expansion, (K3, _nested((), 100_000)), "cannot interpret tuple as a rational"),
    # certify's tail inputs past float64's range raised OverflowError, and
    # n = 10^400 asked numpy for an array past its maximum size; n = 10^10
    # asked for about 40 GB of float64 terms
    (certify.TailParams, (10**400, 0.1, 10, 0.5), f"h=1{'0' * 59}... is past float64 range"),
    (certify.union_bound_sum, (certify.TailParams(2, 0.1, 10**400, 0.5),),
     f"n=1{'0' * 59}... is past float64 range"),
    (certify.verify_unimodality, (certify.TailParams(2, 0.1, 10**400, 0.5),),
     f"5{'0' * 59}... tail terms, over the tail term cap 2000000"),
    (certify.union_bound_sum, (certify.TailParams(2, 0.25, 10**10, 0.5),),
     "5000000000 tail terms, over the tail term cap 2000000"),
    # rate_condition_value raised "math domain error" at u = 0 and gave a
    # value at h = 1, which the rate condition does not cover
    (certify.rate_condition_value, (1, 0.5, 0.1), H2.format(1)),
    (certify.rate_condition_value, (2, 0.0, 0.1), U.format(0.0)),
    (certify.rate_condition_value, (2, 0.5, 0.0), "need 0 < x <= 1, got 0.0"),
    # a report that is no object, lacks a key or nests too deep raised
    # TypeError, KeyError or RecursionError
    (experiment.parse_report_json, ("[1]",), "a report must be a JSON object, got list"),
    (experiment.parse_report_json, ('{"rows": []}',),
     "missing report keys ['config', 'summary']"),
    (experiment.parse_report_json, ("[" * 100_000 + "]" * 100_000,),
     "JSON input is nested too deeply"),
    # rows that were no list raised TypeError, and rows or a summary of
    # the wrong kind were taken as a report
    (experiment.parse_report_json, (json.dumps({"config": SWEEP, "rows": 3, "summary": {}}),),
     "report rows must be a JSON array, got int"),
    (experiment.parse_report_json, (json.dumps({"config": SWEEP, "rows": [1], "summary": {}}),),
     "a report row must be a JSON object, got int"),
    (experiment.parse_report_json, (json.dumps({"config": SWEEP, "rows": [], "summary": [1]}),),
     "a report summary must be a JSON object, got list"),
    # an expansion below 0 gave a bound over 1, and -inf OverflowError;
    # NaN and a non-number keep Fraction's own refusals
    (modularity.expansion_modularity_bound, (PA, -1), "need alpha >= 0, got -1"),
    (modularity.expansion_modularity_bound, (PA, Fraction(-1, 2)), "need alpha >= 0, got -1/2"),
    (modularity.expansion_modularity_bound, (PA, -math.inf), "need alpha >= 0, got -inf"),
    (modularity.baseline_expansion_bound, (PA, -0.5), "need alpha >= 0, got -0.5"),
    (modularity.bound_from_expansion_profile, ({1: Fraction(-1), 2: Fraction(-1)}, 2, 4),
     "need alpha >= 0, got -1"),
    (modularity.expansion_modularity_bound, (PA, math.nan), "cannot convert NaN to integer ratio"),
    (modularity.expansion_modularity_bound, (PA, "abc"), "Invalid literal for Fraction: 'abc'"),
    # a graph's metadata is checked when it is built, not when its file is read
    (MultiGraph, (3, [(1, 1, 1)], False, "bogus"), "unknown model 'bogus'"),
    (MultiGraph, (3, [(1, 1, 1)], False, None, 0), "need h >= 1, got 0"),
    (MultiGraph, (3, [(1, 1, 1)], False, None, None, -1),
     "seed must be a 64-bit unsigned integer, got -1"),
    # a sweep's lists must be arrays: a string was read letter by letter,
    # and an int or object raised TypeError
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "h_list": "23"},),
     "h_list must be a JSON array, got str"),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "h_list": 3},),
     "h_list must be a JSON array, got int"),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "h_list": {"2": 3}},),
     "h_list must be a JSON array, got dict"),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "n_list": "46"},),
     "n_list must be a JSON array, got str"),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "n_list": 4},),
     "n_list must be a JSON array, got int"),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "n_list": {}},),
     "n_list must be a JSON array, got dict"),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "tasks": "expansion"},),
     "tasks must be a JSON array, got str"),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "tasks": 1},),
     "tasks must be a JSON array, got int"),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "tasks": {"bounds": 1}},),
     "tasks must be a JSON array, got dict"),
    (experiment.ExperimentConfig, (*SWEEP.values(), range(1, 3)),
     "tasks must be a JSON array, got range"),
]


@pytest.mark.parametrize(
    "call,args,message",
    REFUSALS,
    ids=[f"{i:02d}-{call.__qualname__}" for i, (call, _a, _m) in enumerate(REFUSALS)],
)
def test_each_refusal_keeps_its_type_and_message(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert type(info.value) is ValueError
    assert str(info.value) == message


BIG = 10**5000  # its text is past Python's 4300-digit limit
ABOUT, MINUS = "about 10^5000", "about -10^5000"
BIG_N = MultiGraph(n=BIG, edges=())

# (callable, positional args, exact ValueError message): each guard and
# cap shows a huge int as its power of ten and names its own rule
HUGE_INTS = [
    (models.generate, (STD, 1, 1, BIG), f"seed must be a 64-bit unsigned integer, got {ABOUT}"),
    (models.generate, (STD, -BIG, 1, 1), HN.format(MINUS, 1)),
    (models.exact_small_t_distribution, (STD, -BIG), f"need t_max >= 1, got {MINUS}"),
    (cuts.edge_boundary, (K3, {BIG}), f"vertex {ABOUT} out of range 1..3"),
    (models.derive_seed, (1, -BIG), f"stream index must be >= 0, got {MINUS}"),
    (models.ArrivalLog, (STD, BIG, 1, (1,)), f"log length 1 != h*n = {ABOUT}"),
    (models.MultiGraph, (BIG, [(0, 1, 1)]), f"edge (0,1) out of range for n={ABOUT}"),
    (models.graph_from_json, ({**GRAPH, "h": BIG, "n": BIG},),
     "expected about 10^10000 edges, found 0"),
    (cut_events.cut_event_bound, (2, 3, BIG, 0), f"need 1 <= k <= n, got k={ABOUT}"),
    (cut_events.cut_event_bound, (2, 3, 1, BIG), f"need 0 <= a < h*k = 2, got a={ABOUT}"),
    (cut_events.cut_event_bound, (BIG, 3, 1, -1), f"need 0 <= a < h*k = {ABOUT}, got a=-1"),
    (cut_events.CutEventSpec, (1, 2, {1}, {BIG}), f"arrival {ABOUT} out of range 1..2"),
    (cut_events.CutEventSpec, (BIG, 2, {1}, {0}), f"arrival 0 out of range 1..{ABOUT}"),
    (cut_events.exact_cut_event, (STD, cut_events.CutEventSpec(BIG, 1, {1}, ())),
     f"h*n = {ABOUT} is over the chain length cap 20000"),
    (models.sample_target_matrix, (STD, BIG, 1, 1),
     f"{ABOUT} cells, over the target cell cap 25000000"),
    (models.sample_target_matrix, (TIL, 2, BIG, 1),
     f"{ABOUT} cells, over the target cell cap 25000000"),
    (models.generate, (TIL, BIG, 1, 1), f"{ABOUT} cells, over the target cell cap 25000000"),
    (cut_events.scan_cut_events, (STD, BIG, 1),
     "about 10^15000 work units, over the scan work cap 25000000"),
    (cuts.exact_expansion, (K3, "1/2", -BIG),
     f"n=3 exceeds the exhaustive limit {MINUS}; use sampled_expansion"),
    (cuts.expansion_profile, (BIG_N,),
     f"n={ABOUT} exceeds the exhaustive limit 24; use sampled_expansion"),
    (modularity.exact_modularity, (K3, -BIG),
     f"n=3 exceeds the exact partition limit {MINUS}; use greedy_modularity"),
    (modularity.exact_modularity, (BIG_N,),
     f"n={ABOUT} exceeds the exact partition limit 16; use greedy_modularity"),
    (models._enumerate_logs, (STD, BIG), f"standard logs of length {ABOUT} have denominator "
     "at least 221643095476699771875 >= 2^63, beyond int64 numerators"),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "exact_expansion_limit": BIG},),
     f"exact_expansion_limit={ABOUT} exceeds EXACT_SUBSET_LIMIT=24, the 2^n tables' memory cap"),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "exact_modularity_limit": BIG},),
     f"exact_modularity_limit={ABOUT} exceeds 16, the 3^n partition DP's time cap"),
    (experiment.ExperimentConfig.from_dict, ({**SWEEP, "trials": -BIG},),
     f"need trials >= 1, got {MINUS}"),
    (modularity.check_partition, (BIG_N, [{BIG}, {BIG, 1}]), f"vertex {ABOUT} appears in two parts"),
    (modularity.profile_modularity_bound, (MultiGraph(n=3, edges=K3.edge_array, h=BIG),),
     f"minimum degree 2 below h={ABOUT}"),
    (modularity.bound_from_expansion_profile, ({1: Fraction(1)}, -BIG, 2),
     f"need h >= 1, got {MINUS}"),
    (certify.large_h_modularity_bound, (-BIG,), f"need h >= 2, got {MINUS}"),
    (certify.log_tail_term, (certify.TailParams(2, 0.1, BIG, 0.5), 0),
     f"need 1 <= k <= n/2, got k=0, n={ABOUT}"),
    # past float64's range these raised OverflowError
    (certify.TailParams, (BIG, 0.1, 10, 0.5), f"h={ABOUT} is past float64 range"),
    (certify.check_rate_condition, (BIG, 0.5, 0.1), f"h={ABOUT} is past float64 range"),
    (certify.union_bound_sum, (certify.TailParams(2, 0.1, BIG, 0.5),),
     f"n={ABOUT} is past float64 range"),
    (certify.log_tail_term, (certify.TailParams(2, 0.1, BIG, 0.5), 1),
     f"n={ABOUT} is past float64 range"),
    (certify.verify_unimodality, (certify.TailParams(2, 0.1, BIG, 0.5),),
     f"{ABOUT} tail terms, over the tail term cap 2000000"),
    # certify's float rules formatted an int argument whole
    (certify.TailParams, (2, 0.1, 10, BIG), U.format(ABOUT)),
    (certify.TailParams, (2, BIG, 10, 0.5), f"need 0 < alpha_hat < (h-1)/2 = 0.5, got {ABOUT}"),
    (certify.check_rate_condition, (2, 0.5, BIG), f"need 0 < x <= 1, got {ABOUT}"),
    (certify.complement_term_dominates, (0.5, -BIG), f"need 0 <= delta <= 1, got {MINUS}"),
    (certify.max_certified_delta, (0.5, BIG), f"need 2^-55 <= precision <= 1/4, got {ABOUT}"),
    (certify.certify_modularity_bound, (BIG,), f"need 0 < grid_step <= 1/2, got {ABOUT}"),
    (certify.check_expansion_constant, (BIG,), f"need 0 < eta < 1, got {ABOUT}"),
]


@pytest.mark.parametrize(
    "call,args,message",
    HUGE_INTS,
    ids=[f"{i:02d}-{call.__qualname__}" for i, (call, _a, _m) in enumerate(HUGE_INTS)],
)
def test_a_huge_int_is_refused_by_its_own_rule(call, args, message):
    # each used to raise Python's "Exceeds the limit (4300 digits) for
    # integer string conversion" while formatting its own message
    with pytest.raises(ValueError) as info:
        call(*args)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_huge_ints_from_the_command_line_give_the_rules_line(tmp_path, capsys):
    # a graph file with 3000-digit h and n, and a 4000-digit trial count
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**GRAPH, "h": 10**2999, "n": 10**2999}))
    assert cli.main(["expand", "--graph", str(path)]) == 2
    assert capsys.readouterr().err == "error: expected about 10^5998 edges, found 0\n"
    args = ["lemma2", "--model", "standard", "--h", "2", "--n", "3"]
    assert cli.main([*args, "--spec", '{"S": [1], "A": []}', "--trials", str(10**3999)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: 6{'0' * 59}... cells, over the target cell cap 25000000\n"


@pytest.mark.parametrize(
    "u, rule",
    [
        pytest.param("1e400", "need 0 < u <= 1/2, got ", id="1e400"),
        pytest.param("1e5000", "need 0 < u <= 1/2, got ", id="1e5000"),
        pytest.param("1e-5000", "need u of at most 4300 digits, got ", id="1e-5000"),
        pytest.param(LONG, "Invalid literal for Fraction: 'xxx", id="x*100000"),
    ],
)
def test_a_huge_u_gives_one_short_usage_line(tmp_path, capsys, u, rule):
    # the line used to hold all 401 digits of 1e400, and 1e5000 gave
    # Python's "Exceeds the limit (4300 digits)" message instead of the
    # rule; 1e-5000 is in range but gave that message on output, and
    # 100000 x's gave a 100040-character line
    path = tmp_path / "g.json"
    models.save_graph(models.generate(STD, 2, 6, 1)[1], path)
    assert cli.main(["expand", "--graph", str(path), "--u", u]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith(f"error: {rule}") and len(line) <= 100


def test_many_unknown_task_names_give_a_short_line():
    names = [f"{i:055d}" for i in range(2000)]
    with pytest.raises(ValueError) as info:
        experiment.ExperimentConfig.from_dict({**SWEEP, "tasks": names})
    message = str(info.value)
    assert len(message) < 400
    assert message.startswith(f"unknown tasks {names[:3]} and 1997 more; ")


def test_the_edge_cases_next_to_the_refusals_keep_their_results():
    # an edgeless graph scores zero by convention
    score = modularity.modularity_score(EDGELESS, [{1, 2, 3}])
    assert score == modularity.ModularityScore(Fraction(0), Fraction(0), Fraction(0))
    # the top admissible multiple of 0.05 below 1/4 is certifiable at u = 1e-6
    assert certify.max_certified_delta(1e-6, 0.05) == 0.2
    assert certify.max_certified_delta(1e-6, 0.125) == 0.125
    # the default constant reads the same wherever it is reported
    assert certify.check_expansion_constant()
    assert experiment._summarize([], [])["expansion_constant"] == 0.03418


# --------------------------------------------------- the int rule, everywhere

# (entry point, parameter, the call with ``bad`` in that parameter): every
# public count, size, limit, h, seed and stream index is a Python int
INT_ENTRY_POINTS = [
    ("generate", "h", lambda bad: models.generate(STD, bad, 3, 1)),
    ("generate", "n", lambda bad: models.generate(TIL, 2, bad, 1)),
    ("ArrivalLog", "h", lambda bad: models.ArrivalLog(STD, bad, 1, (1,))),
    ("ArrivalLog", "n", lambda bad: models.ArrivalLog(STD, 1, bad, (1,))),
    ("MultiGraph", "n", lambda bad: MultiGraph(n=bad, edges=())),
    ("MultiGraph", "h", lambda bad: MultiGraph(n=3, edges=[(1, 1, 1)], h=bad)),
    ("MultiGraph", "seed", lambda bad: MultiGraph(n=3, edges=[(1, 1, 1)], seed=bad)),
    ("merge", "seed", lambda bad: models.merge(PA_LOG, seed=bad)),
    ("derive_seed", "stream index", lambda bad: models.derive_seed(1, bad)),
    ("sample_target_matrix", "length", lambda bad: models.sample_target_matrix(STD, bad, 2, 1)),
    ("sample_target_matrix", "trials", lambda bad: models.sample_target_matrix(TIL, 3, bad, 1)),
    ("exact_small_t_distribution", "t_max",
     lambda bad: models.exact_small_t_distribution(STD, bad)),
    ("exact_expansion", "limit", lambda bad: cuts.exact_expansion(K3, "1/2", limit=bad)),
    ("expansion_profile", "limit", lambda bad: cuts.expansion_profile(K3, limit=bad)),
    ("sampled_expansion", "trials", lambda bad: cuts.sampled_expansion(K3, "1/2", bad, 0)),
    ("exact_modularity", "limit", lambda bad: modularity.exact_modularity(K3, limit=bad)),
    ("profile_modularity_bound", "limit",
     lambda bad: modularity.profile_modularity_bound(PA, limit=bad)),
    ("bound_from_expansion_profile", "h",
     lambda bad: modularity.bound_from_expansion_profile({1: Fraction(1)}, bad, 2)),
    ("bound_from_expansion_profile", "n",
     lambda bad: modularity.bound_from_expansion_profile({1: Fraction(1)}, 2, bad)),
    ("CutEventSpec", "h", lambda bad: cut_events.CutEventSpec(bad, 2, {1}, ())),
    ("CutEventSpec", "n", lambda bad: cut_events.CutEventSpec(1, bad, {1}, ())),
    ("cut_event_bound", "h", lambda bad: cut_events.cut_event_bound(bad, 3, 1, 0)),
    ("cut_event_bound", "n", lambda bad: cut_events.cut_event_bound(2, bad, 1, 0)),
    ("cut_event_bound", "k", lambda bad: cut_events.cut_event_bound(2, 3, bad, 0)),
    ("cut_event_bound", "a", lambda bad: cut_events.cut_event_bound(2, 3, 1, bad)),
    ("scan_cut_events", "h", lambda bad: cut_events.scan_cut_events(STD, bad, 3)),
    ("scan_cut_events", "n", lambda bad: cut_events.scan_cut_events(TIL, 2, bad)),
    ("estimate_cut_event", "trials", lambda bad: cut_events.estimate_cut_event(STD, SPEC, bad, 1)),
    ("TailParams", "h", lambda bad: certify.TailParams(bad, 0.1, 10, 0.5)),
    ("TailParams", "n", lambda bad: certify.TailParams(2, 0.1, bad, 0.5)),
    ("log_tail_term", "k",
     lambda bad: certify.log_tail_term(certify.TailParams(2, 0.1, 10, 0.5), bad)),
    ("check_rate_condition", "h", lambda bad: certify.check_rate_condition(bad, 0.5, 0.1)),
    ("rate_condition_value", "h", lambda bad: certify.rate_condition_value(bad, 0.5, 0.1)),
    ("large_h_modularity_bound", "h", lambda bad: certify.large_h_modularity_bound(bad)),
    ("ExperimentConfig", "trials",
     lambda bad: experiment.ExperimentConfig.from_dict({**SWEEP, "trials": bad})),
    ("ExperimentConfig", "exact_expansion_limit",
     lambda bad: experiment.ExperimentConfig.from_dict({**SWEEP, "exact_expansion_limit": bad})),
]


@pytest.mark.parametrize("bad", [2.5, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "call,name",
    [(call, name) for _entry, name, call in INT_ENTRY_POINTS],
    ids=[f"{entry}-{name}" for entry, name, _call in INT_ENTRY_POINTS],
)
def test_each_int_parameter_refuses_a_float_a_bool_and_a_string(call, name, bad):
    # a float was taken as a size, a bool as 1, and a string raised TypeError
    with pytest.raises(ValueError) as info:
        call(bad)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{name} must be an integer, got {bad!r}"


SIZES = [(entry, name, call) for entry, name, call in INT_ENTRY_POINTS
         if name not in ("seed", "stream index")]


@pytest.mark.parametrize(
    "call,name",
    [(call, name) for _entry, name, call in SIZES],
    ids=[f"{entry}-{name}" for entry, name, _call in SIZES],
)
def test_a_numpy_int_size_is_refused(call, name):
    # sizes follow a graph file's rule; a numpy seed stays accepted
    with pytest.raises(ValueError) as info:
        call(np.int64(2))
    assert str(info.value) == f"{name} must be an integer, got {np.int64(2)!r}"


# ---------------------------------------------------------- one owner each


def _template(node: ast.JoinedStr) -> str:
    """An f-string with every replacement field written as {…}."""
    return "".join(
        part.value if isinstance(part, ast.Constant) else "{…}" for part in node.values
    )


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def _templates(tree) -> list[str]:
    return [_template(node) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)]


@pytest.mark.parametrize(
    "template,modules",
    [
        ("need h >= 1 and n >= 1, got h={…}, n={…}", None),
        # vertices and arrivals, by models._check_vertices
        ("{…} {…} out of range 1..{…}", None),
        # cuts._check_u prints the Fraction; certify's is the float rule
        ("need 0 < u <= 1/2, got {…}", ["certify.py"]),
        ("need h >= 2, got {…}", None),
        ("need 0 < eta < 1, got {…}", None),
        ("need {…} >= 1, got {…}", None),
        # exhaustive expansion and exact modularity: a limit only lowers the cap
        ("n={…} exceeds the {…} limit {…}; use {…}", None),
    ],
    ids=["h-n", "vertex", "certify-u", "certify-h", "certify-eta", "count", "limit"],
)
def test_each_shared_refusal_is_written_once(template, modules):
    trees = _trees()
    found = [
        name
        for name, tree in trees.items()
        if modules is None or name in modules
        for text in _templates(tree)
        if text == template
    ]
    assert len(found) == 1, found


def test_no_hand_written_copy_of_the_range_or_limit_rule_is_left():
    texts = [text for tree in _trees().values() for text in _templates(tree)]
    assert [t for t in texts if "out of range 1.." in t] == ["{…} {…} out of range 1..{…}"]
    assert [t for t in texts if " limit {…}; use " in t] == [
        "n={…} exceeds the {…} limit {…}; use {…}"
    ]


def test_the_tilde_loop_rule_and_the_expansion_constant_are_written_once():
    tilde_keywords, constants = [], []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg == "first_loop_weight1":
                value = node.value
                if (
                    isinstance(value, ast.Compare)
                    and isinstance(value.ops[0], ast.Is)
                    and ast.unparse(value.comparators[0]) == "Model.TILDE"
                ):
                    tilde_keywords.append(name)
            # a float constant is never a docstring
            if isinstance(node, ast.Constant) and node.value == 0.03418:
                constants.append(name)
    assert tilde_keywords == ["models.py"]
    assert constants == ["certify.py"]


def test_the_profile_size_rule_is_written_once():
    # a plain string, which the f-string templates above do not see
    found = [
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "profile bound needs n >= 2"
    ]
    assert found == ["modularity.py"]


def test_the_modularity_constant_is_written_once():
    found = [
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == 0.92383
    ]
    assert found == ["certify.py"]
    assert experiment._summarize([], [])["certified_bound"] == 0.92383
