"""Fixture: one stage violating every stage-inputs rule.

Never imported — parsed by the stage-inputs checker in
tests/test_analysis.py. Each ``# expect: CODE`` comment pins the exact
finding code(s) and line the checker must report.
"""


class Stage:
    pass


def helper(ctx, flow_state):
    return flow_state.hidden_read + ctx.config.hidden_knob  # expect: RPL102, RPL103


class BadStage(Stage):
    name = "bad"
    salt = "v1"
    context_inputs = ("graph",)  # expect: RPL105
    config_inputs = ("alpha",)
    state_inputs = ("topology",)
    state_outputs = ("score",)

    def run(self, ctx, state):
        state.score = ctx.library.cost(state.topology)  # expect: RPL101
        state.extra = ctx.config.alpha  # expect: RPL104
        use(ctx.config)  # expect: RPL106
        return helper(ctx, state)


def use(config):
    return config


class WholeConfigStage(Stage):
    """A whole-config declaration no longer exists: ``"*"`` declares
    nothing, and the escape is a finding like any other."""

    name = "whole-config"
    salt = "v1"
    context_inputs = ("graph",)
    config_inputs = "*"
    state_inputs = ("topology",)
    state_outputs = ("score",)

    def run(self, ctx, state):
        state.score = evaluate(state.topology, ctx.graph, ctx.config)  # expect: RPL106


def evaluate(topology, graph, config):
    return 0
