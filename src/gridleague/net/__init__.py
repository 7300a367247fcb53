from .batch import ObsBatch, encode_z
from .config import Z_DIM, NetConfig
from .policy import PolicyNet, StepOutput
