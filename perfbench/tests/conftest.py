def pytest_configure(config):
    config.addinivalue_line("markers", "slow: runs the benchmark command end to end")
