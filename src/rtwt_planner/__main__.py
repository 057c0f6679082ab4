"""`python -m rtwt_planner`: the same command line as `rtwt-planner`."""

from .cli import run

if __name__ == "__main__":
    run()
