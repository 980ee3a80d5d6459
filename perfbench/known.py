"""Known answers for the problem files, written by hand from each file's
semantics.  Never regenerate them from the program under test."""

# Exit codes of `odeliv check`: 0 proved, 2 refused or unknown, 3 input error.
CHECK_EXIT = {
    "example1.ode": 0,
    "example2.ode": 0,
    "example2_domain.ode": 0,
    "double_integrator.ode": 0,
    "ce1.ode": 2,  # finite-time blow-up: GlobalLipschitz gate refuses
    "ce3.ode": 2,  # domain violated initially: InitialState gate refuses
    "ce4.ode": 2,  # closed, unbounded level set: Compact gate refuses
    "example2_domain_halfopen.ode": 2,  # half-open domain: TopoUnknown
    "ce2.ode": 3,  # no proof block
}

# Class of every sampled trajectory under `odeliv falsify`.
FALSIFY_CLASS = {
    "ce1.ode": "BLOWUP",  # x' = 1 + x^2 from 0 escapes at pi/2, before t = 2
    "ce4.ode": "BLOWUP",  # x' = x^2 from 2 escapes at t = 2.5, before t > 3
    "ce2.ode": "REFUTED-SAMPLE",  # must cross the excluded point x = 1
    "ce3.ode": "REFUTED-SAMPLE",  # starts outside the domain
    "example2_domain_halfopen.ode": "REFUTED-SAMPLE",  # r^2 = 2 is outside [1, 2)
    "example1.ode": "WITNESS",
    "example2.ode": "WITNESS",
    "double_integrator.ode": "WITNESS",
    # r^2 grows from 1 and meets the goal r^2 >= 2 on the closed annulus'
    # outer circle, which still lies in the domain.
    "example2_domain.ode": "WITNESS",
}

# `odeliv catalog`: every entry reports ok.
CATALOG_IDS = ("CE-1", "CE-2", "CE-3", "CE-4")
