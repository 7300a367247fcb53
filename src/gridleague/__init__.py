"""Desk-scale RTS imitation learning: a grid game engine with scripted
players and replays, a numpy autodiff, a policy/value network, behaviour
cloning, and a batched match runner."""

__version__ = "0.1.0"
