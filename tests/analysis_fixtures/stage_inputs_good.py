"""Fixture: a stage whose declarations exactly match what run() touches.

Never imported — parsed by the stage-inputs checker in tests/test_analysis.py.
"""

_SHARED_CONFIG_INPUTS = ("alpha", "beta")


def helper(ctx, state):
    return ctx.library.cost(state.topology)


class Stage:
    pass


class GoodStage(Stage):
    name = "good"
    salt = "v1"
    context_inputs = ("graph", "library")
    config_inputs = _SHARED_CONFIG_INPUTS
    state_inputs = ("topology",)
    state_outputs = ("score", "topology")

    def run(self, ctx, state):
        weight = ctx.config.alpha + ctx.config.beta
        base = helper(ctx, state)
        state.score = weight * base + self._extra(ctx)
        # Read-after-own-write: not a cache input.
        state.topology = state.score and state.topology

    def _extra(self, ctx):
        return len(ctx.graph.edges)

