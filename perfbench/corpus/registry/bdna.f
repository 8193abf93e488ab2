
program bdna
  input integer :: n = 70, steps = 10
  integer :: i, t
  real :: x(100), v(100), fx(100), m(100)
  real :: e
  do i = 1, n
    x(i) = real(i) * 0.25
    v(i) = 0.0
    fx(i) = 0.0
    m(i) = 1.0 + real(i) * 0.01
  end do
  do t = 1, steps
    call forces(n, x, fx)
    call integrate(n, x, v, fx, m)
  end do
  e = 0.0
  do i = 1, n
    e = e + v(i) * v(i) * m(i) * 0.5
  end do
  print e
end program

subroutine forces(n, x, fx)
  integer :: n, i
  real :: x(100), fx(100)
  do i = 2, n - 1
    fx(i) = x(i + 1) + x(i - 1) - 2.0 * x(i)
  end do
  fx(1) = x(2) - x(1)
  fx(n) = x(n - 1) - x(n)
end subroutine

subroutine integrate(n, x, v, fx, m)
  integer :: n, i
  real :: x(100), v(100), fx(100), m(100)
  do i = 1, n
    v(i) = v(i) + fx(i) / m(i) * 0.01
    x(i) = x(i) + v(i) * 0.01
  end do
end subroutine
