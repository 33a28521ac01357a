from hypothesis import settings

# a deeper run of tests/test_cli_contract.py, which scales its own example counts by ten
# under this profile: pytest --hypothesis-profile=ci-deep tests/test_cli_contract.py
settings.register_profile("ci-deep", max_examples=600)
