from .core import *  # noqa: F403 -- the public names are core.__all__
from .checkpoint import CheckpointError, load_checkpoint, peek_version, save_checkpoint
from .gradcheck import grad_check
from .lstm import ResidualLSTM, lstm_cell
from .optim import Adam
