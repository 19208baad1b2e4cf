from hypothesis import HealthCheck, settings

# a multi-worker run takes as long as all its workers' turns together;
# a per-example deadline would fail slow examples, not wrong ones
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("suite")
