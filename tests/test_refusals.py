"""Every input rule's refusal, pinned by exact type and message, and the
one place in ``src/pamod`` where each shared rule is written."""

import ast
import math
import pathlib
from fractions import Fraction

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
    (models.sample_target_matrix, (STD, 0, 5, 1), "need length >= 1 and trials >= 1"),
    (models.sample_target_matrix, (TIL, 5, 0, 1), "need length >= 1 and trials >= 1"),
    (models.derive_seed, (1, -1), "stream index must be >= 0, got -1"),
    (models.exact_small_t_distribution, (STD, 0), "need t_max >= 1, got 0"),
    (models._enumerate_logs, (STD, 15), CAP.format("standard", 15, 10, 3628800)),
    (models.exact_small_t_distribution, (TIL, 12), CAP.format("tilde", 12, 11, 3628800)),
    (models.graph_from_json, (GRAPH,), "need h >= 1, got h=0"),
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
    (cuts.exact_expansion, (K3, [1]), "cannot interpret [1] as a rational"),
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
    (modularity.bound_from_expansion_profile, ({1: Fraction(1)}, 0, 2), "need h >= 1"),
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
        ("vertex {…} out of range 1..{…}", None),
        # cuts._check_u prints the Fraction; certify's is the float rule
        ("need 0 < u <= 1/2, got {…}", ["certify.py"]),
        ("need h >= 2, got {…}", None),
        ("need 0 < eta < 1, got {…}", None),
        ("need {…} >= 1, got {…}", None),
    ],
    ids=["h-n", "vertex", "certify-u", "certify-h", "certify-eta", "count"],
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


def test_the_modularity_constant_is_written_once():
    found = [
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == 0.92383
    ]
    assert found == ["certify.py"]
    assert experiment._summarize([], [])["certified_bound"] == 0.92383
