
program qcd
  input integer :: nsite = 48, sweeps = 8
  integer :: s, t
  integer :: nbr(64)
  real :: u(64), staple(64), act(64)
  real :: action
  do s = 1, nsite
    nbr(s) = mod(s, nsite) + 1
    u(s) = 1.0
    staple(s) = 0.0
    act(s) = 0.0
  end do
  do t = 1, sweeps
    call update(nsite, nbr, u, staple)
    call relax(nsite, u, staple)
    call measure(nsite, u, act)
  end do
  action = 0.0
  do s = 1, nsite
    action = action + act(s)
  end do
  print action
end program

subroutine update(nsite, nbr, u, staple)
  integer :: nsite, s, k
  integer :: nbr(64)
  real :: u(64), staple(64)
  do s = 1, nsite
    k = nbr(s)
    staple(s) = u(k) * 0.4 + u(s) * 0.6
    u(s) = u(s) * 0.95 + staple(s) * 0.05
  end do
end subroutine

subroutine relax(nsite, u, staple)
  integer :: nsite, s
  real :: u(64), staple(64)
  do s = 1, nsite
    u(s) = u(s) * 0.97 + staple(s) * 0.03
    staple(s) = staple(s) * 0.5 + u(s) * 0.01
  end do
end subroutine

subroutine measure(nsite, u, act)
  integer :: nsite, s
  real :: u(64), act(64)
  do s = 1, nsite
    act(s) = act(s) + u(s) * u(s) * 0.5
    u(s) = u(s) * 0.9999 + act(s) * 0.00001
    act(s) = act(s) * 0.999 + u(s) * 0.001
  end do
end subroutine
