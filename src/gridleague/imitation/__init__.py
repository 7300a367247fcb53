from .bc import BCConfig, BCTrainer, bc_loss, teacher_agreement, window_forward
from .dataset import (
    Trajectory,
    Window,
    WindowLoader,
    cut_windows,
    generate_dataset,
    load_index,
    load_trajectory,
)
