"""Random Hill parameter sets in the ranges of acceptance criterion 7a, as
numpy draws and as a hypothesis strategy."""

from hypothesis import strategies as st

from sddhopf import hes1_params


def draw_hill_params(rng):
    """One set from a numpy Generator, in criterion 7a's draw order."""
    mu_m = 10.0 ** rng.uniform(-2.3, -0.6)
    mu_p = 10.0 ** rng.uniform(-2.3, -0.6)
    return hes1_params(c=rng.uniform(0.0, 0.3), eps=1.0, mu_m=mu_m, mu_p=mu_p,
                       alpha_m=rng.uniform(5.0, 100.0),
                       alpha_p=rng.uniform(1.0, 30.0),
                       ybar=rng.uniform(300.0, 5000.0),
                       h=float(rng.choice([3, 5, 7])))


@st.composite
def hill_params(draw):
    """The same ranges as draw_hill_params, drawn by hypothesis."""
    decay = st.floats(-2.3, -0.6).map(lambda e: 10.0 ** e)
    return hes1_params(c=draw(st.floats(0.0, 0.3)), eps=1.0,
                       mu_m=draw(decay), mu_p=draw(decay),
                       alpha_m=draw(st.floats(5.0, 100.0)),
                       alpha_p=draw(st.floats(1.0, 30.0)),
                       ybar=draw(st.floats(300.0, 5000.0)),
                       h=float(draw(st.sampled_from([3, 5, 7]))))
