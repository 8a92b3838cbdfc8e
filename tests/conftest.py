from hypothesis import settings

# fixed example sequence and no per-example deadline: the property tests give
# the same verdict on every run, however loaded the host is
settings.register_profile("fiem", derandomize=True, deadline=None)
settings.load_profile("fiem")
