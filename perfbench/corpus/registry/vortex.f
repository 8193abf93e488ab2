
program vortex
  input integer :: n = 60, steps = 14
  integer :: i, t
  real :: x(200), u(200), v(200), w(200), f(200)
  real :: dt, circ
  dt = 0.01
  do i = 1, n
    x(i) = real(i) * 0.5
    u(i) = 0.0
    v(i) = 0.0
    w(i) = 1.0 / real(i)
    f(i) = 0.0
  end do
  do t = 1, steps
    call induce(n, x, u, v, w)
    call advance(n, x, u, v, f, dt)
  end do
  circ = 0.0
  do i = 1, n
    circ = circ + w(i) * u(i) + f(i)
  end do
  print circ
end program

subroutine induce(n, x, u, v, w)
  integer :: n, i
  real :: x(200), u(200), v(200), w(200)
  real :: s
  do i = 1, n
    s = x(i) * 0.3 + w(i)
    u(i) = u(i) * 0.9 + s * 0.1
    v(i) = v(i) * 0.9 - s * 0.1
    w(i) = w(i) * 0.999
  end do
end subroutine

subroutine advance(n, x, u, v, f, dt)
  integer :: n, i
  real :: dt
  real :: x(200), u(200), v(200), f(200)
  do i = 1, n
    f(i) = u(i) * dt + v(i) * dt * 0.5
    x(i) = x(i) + f(i) + v(i) * dt
  end do
end subroutine
