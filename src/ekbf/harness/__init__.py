"""Monte Carlo harness: estimators, statistics, config, and the command line."""
