from . import constants
from .engine import Game, cheby
from .replay import ReplayError, read_replay, rerun, verify_replay, write_replay
from .script import ARCHETYPES, ScriptedPolicy, play_scripted_match
from .stats import extract_statistic
from .types import MatchOutcome, Observation, StatisticZ, StructuredAction
