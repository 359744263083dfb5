import hypothesis
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ucqaoa.instance import UcInstance, UnitSpec

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def unit_specs(draw, max_pmax: float = 400.0, degenerate: bool = False):
    p_max = draw(st.floats(10.0, max_pmax, allow_nan=False, allow_infinity=False))
    frac = draw(st.floats(0.05, 0.4))
    a = draw(st.floats(0.0, 1200.0))
    b = draw(st.floats(5.0, 30.0))
    c = draw(st.floats(1e-4, 1e-2))
    if degenerate:
        # opt-in edge cases: a zero-curvature (step) unit, a fixed-output
        # unit, a unit with no startup cost
        if draw(st.booleans()):
            c = 0.0
        if draw(st.booleans()):
            frac = 1.0
        if draw(st.booleans()):
            a = 0.0
    return UnitSpec(p_min=frac * p_max, p_max=p_max, a=a, b=b, c=c)


@st.composite
def instances(draw, min_units: int = 1, max_units: int = 8, degenerate: bool = False):
    """Random instances; ``degenerate=True`` also draws units with c = 0,
    units with p_min == p_max, units with a = 0 and loads up to exactly
    the total capacity, so some draws have no feasible commitment."""
    units = tuple(draw(st.lists(unit_specs(degenerate=degenerate),
                                min_size=min_units, max_size=max_units)))
    cap = sum(u.p_max for u in units)
    # load above the all-ON minimum and below capacity keeps the draw feasible;
    # near capacity only the all-ON commitment, or none, can cover it
    fracs = st.floats(0.45, 0.95)
    if degenerate:
        fracs = st.one_of(fracs, st.floats(0.95, 1.0), st.just(1.0))
    frac = draw(fracs)
    return UcInstance(units=units, load=frac * cap, name="hyp")
